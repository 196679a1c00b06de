package spq

import (
	"fmt"
	"strings"
	"testing"
)

// TestLoadLinesLongLine is the regression test for the scanner token cap:
// a feature line whose keyword list exceeds the old hard 1 MiB limit used
// to fail the whole batch with bufio's bare "token too long". Lines up to
// MaxLineBytes must load.
func TestLoadLinesLongLine(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("D\t1\t0.5\t0.5\n")
	sb.WriteString("F\t2\t0.4\t0.6\t")
	// ~2 MiB of distinct keywords on one line (each "kw<nnnnnn>," is ~10
	// bytes), comfortably past the old 1 MiB cap.
	nkw := 250000
	for i := 0; i < nkw; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "kw%06d", i)
	}
	sb.WriteByte('\n')
	if len(sb.String()) < 2<<20 {
		t.Fatalf("test line only %d bytes, want > 2 MiB", sb.Len())
	}

	e := NewEngine(Config{})
	if err := e.LoadLines(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("LoadLines rejected a %d-byte line: %v", sb.Len(), err)
	}
	nData, nFeats := e.Len()
	if nData != 1 || nFeats != 1 {
		t.Fatalf("loaded %d data / %d features, want 1/1", nData, nFeats)
	}
	// The giant keyword list round-tripped: querying one of its keywords
	// scores the data object.
	res, err := e.Query(Query{K: 1, Radius: 0.5, Keywords: []string{"kw123456"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("query over the long-line feature returned %+v", res)
	}
}
