package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func newFS(t *testing.T, cfg Config) *FileSystem {
	t.Helper()
	return New(cfg)
}

func TestCreateReadRoundTrip(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 4, BlockSize: 8, Replication: 2, Seed: 1})
	data := []byte("hello distributed file system")
	if err := fs.Create("f", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("ReadAll = %q, want %q", got, data)
	}
	n, err := fs.Len("f")
	if err != nil || n != int64(len(data)) {
		t.Errorf("Len = %d, %v", n, err)
	}
}

func TestCreateEmptyFile(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 2, Seed: 1})
	if err := fs.Create("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("ReadAll = %q, want empty", got)
	}
	splits, err := fs.Splits("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 0 {
		t.Errorf("empty file has %d splits", len(splits))
	}
}

func TestDuplicateCreateFails(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 2, Seed: 1})
	if err := fs.Create("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("f", []byte("y")); !errors.Is(err, ErrExists) {
		t.Errorf("second create: %v, want ErrExists", err)
	}
}

func TestReadMissingFile(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 2, Seed: 1})
	if _, err := fs.ReadAll("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReadAll missing = %v, want ErrNotFound", err)
	}
	if _, err := fs.Splits("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Splits missing = %v, want ErrNotFound", err)
	}
	if err := fs.Delete("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete missing = %v, want ErrNotFound", err)
	}
}

func TestDeleteFreesBlocks(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 3, BlockSize: 4, Replication: 3, Seed: 1})
	if err := fs.Create("f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("f") {
		t.Error("file still exists after delete")
	}
	for i, n := range fs.nodes {
		if len(n.blocks) != 0 {
			t.Errorf("node %d still holds %d blocks", i, len(n.blocks))
		}
	}
}

func TestBlockCountAndReplication(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 5, BlockSize: 10, Replication: 3, Seed: 42})
	data := make([]byte, 95) // 9 full blocks + 1 partial
	if err := fs.Create("f", data); err != nil {
		t.Fatal(err)
	}
	locs, err := fs.BlockLocations("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 10 {
		t.Fatalf("got %d blocks, want 10", len(locs))
	}
	for i, hosts := range locs {
		if len(hosts) != 3 {
			t.Errorf("block %d has %d replicas, want 3", i, len(hosts))
		}
		seen := map[string]bool{}
		for _, h := range hosts {
			if seen[h] {
				t.Errorf("block %d replicated twice on %s", i, h)
			}
			seen[h] = true
		}
	}
}

func TestReplicationCappedAtNodes(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 2, BlockSize: 4, Replication: 3, Seed: 1})
	if err := fs.Create("f", []byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	locs, _ := fs.BlockLocations("f")
	for _, hosts := range locs {
		if len(hosts) != 2 {
			t.Errorf("replicas = %d, want 2 (capped)", len(hosts))
		}
	}
}

func TestFailoverToReplica(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 4, BlockSize: 8, Replication: 2, Seed: 7})
	data := []byte("block one block two and some change")
	if err := fs.Create("f", data); err != nil {
		t.Fatal(err)
	}
	// Kill one node; every block still has a live replica.
	fs.KillNode(0)
	got, err := fs.ReadAll("f")
	if err != nil {
		t.Fatalf("read after single failure: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("data corrupted after failover")
	}
}

func TestAllReplicasDead(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 3, BlockSize: 8, Replication: 3, Seed: 7})
	if err := fs.Create("f", []byte("some data here")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		fs.KillNode(i)
	}
	if _, err := fs.ReadAll("f"); !errors.Is(err, ErrNoLiveReplica) {
		t.Errorf("ReadAll with all nodes dead = %v, want ErrNoLiveReplica", err)
	}
	fs.ReviveNode(1)
	if _, err := fs.ReadAll("f"); err != nil {
		t.Errorf("ReadAll after revive = %v", err)
	}
}

func TestWriteAfterAllNodesDead(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 2, BlockSize: 4, Seed: 1})
	fs.KillNode(0)
	fs.KillNode(1)
	if err := fs.Create("f", []byte("abcdefgh")); !errors.Is(err, ErrNoLiveNodes) {
		t.Errorf("Create = %v, want ErrNoLiveNodes", err)
	}
}

func TestReadRange(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 3, BlockSize: 4, Seed: 1})
	data := []byte("0123456789abcdef")
	if err := fs.Create("f", data); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		off  int64
		n    int
		want string
	}{
		{0, 4, "0123"},
		{0, 16, "0123456789abcdef"},
		{2, 6, "234567"}, // crosses a block boundary
		{3, 10, "3456789abc"},
		{14, 10, "ef"}, // truncated at EOF
		{16, 4, ""},    // at EOF
		{100, 4, ""},   // past EOF
		{5, 0, ""},     // zero length
	}
	for _, tt := range tests {
		got, err := fs.ReadRange("f", tt.off, tt.n)
		if err != nil {
			t.Fatalf("ReadRange(%d,%d): %v", tt.off, tt.n, err)
		}
		if string(got) != tt.want {
			t.Errorf("ReadRange(%d,%d) = %q, want %q", tt.off, tt.n, got, tt.want)
		}
	}
	// A negative offset (a malformed split descriptor) is an error, not a
	// slice-bounds panic.
	if got, err := fs.ReadRange("f", -100, 10); err == nil {
		t.Errorf("ReadRange(-100,10) = %q, want an error", got)
	}
}

func TestListSorted(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 2, Seed: 1})
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := fs.Create(n, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

// Every line of a file must be delivered by exactly one split, regardless
// of how lines straddle block boundaries.
func collectAllSplitLines(t *testing.T, fs *FileSystem, name string) []string {
	t.Helper()
	splits, err := fs.Splits(name)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, s := range splits {
		err := fs.SplitLines(s, func(line []byte) bool {
			lines = append(lines, string(line))
			return true
		})
		if err != nil {
			t.Fatalf("split %v: %v", s, err)
		}
	}
	return lines
}

func TestSplitLinesExactlyOnce(t *testing.T) {
	tests := []struct {
		name      string
		blockSize int
		content   string
	}{
		{"lines shorter than block", 16, "aa\nbb\ncc\ndd\nee\n"},
		{"line exactly block size", 4, "abc\ndef\nghi\n"},
		{"line spans blocks", 4, "abcdefghij\nklmnopqr\nst\n"},
		{"single huge line", 4, "abcdefghijklmnopqrstuvwxyz\n"},
		{"no trailing newline", 5, "one\ntwo\nthree"},
		{"empty lines", 4, "\n\na\n\nb\n"},
		{"newline at block edge", 4, "abc\nxyz\n"},
		{"one line one block", 64, "only\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := newFS(t, Config{NumNodes: 3, BlockSize: tt.blockSize, Seed: 2})
			if err := fs.Create("f", []byte(tt.content)); err != nil {
				t.Fatal(err)
			}
			got := collectAllSplitLines(t, fs, "f")
			want := strings.Split(strings.TrimSuffix(tt.content, "\n"), "\n")
			if tt.content == "" {
				want = nil
			}
			if len(got) != len(want) {
				t.Fatalf("got %d lines %q, want %d %q", len(got), got, len(want), want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
				}
			}
		})
	}
}

func TestSplitLinesRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		blockSize := 1 + r.Intn(40)
		var sb strings.Builder
		var want []string
		numLines := r.Intn(60)
		for i := 0; i < numLines; i++ {
			line := strings.Repeat("x", r.Intn(25)) + fmt.Sprint(i)
			want = append(want, line)
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
		fs := New(Config{NumNodes: 4, BlockSize: blockSize, Seed: int64(trial)})
		if err := fs.Create("f", []byte(sb.String())); err != nil {
			t.Fatal(err)
		}
		got := collectAllSplitLines(t, fs, "f")
		if len(got) != len(want) {
			t.Fatalf("trial %d (bs=%d): got %d lines, want %d", trial, blockSize, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d line %d = %q, want %q", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSplitLinesEarlyStop(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 2, BlockSize: 64, Seed: 1})
	if err := fs.Create("f", []byte("a\nb\nc\nd\n")); err != nil {
		t.Fatal(err)
	}
	splits, _ := fs.Splits("f")
	var n int
	err := fs.SplitLines(splits[0], func(line []byte) bool {
		n++
		return n < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("yield called %d times, want 2", n)
	}
}

func TestSplitHostsMatchBlockLocations(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 6, BlockSize: 4, Replication: 3, Seed: 9})
	if err := fs.Create("f", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	splits, _ := fs.Splits("f")
	locs, _ := fs.BlockLocations("f")
	if len(splits) != len(locs) {
		t.Fatalf("%d splits vs %d blocks", len(splits), len(locs))
	}
	var off int64
	for i, s := range splits {
		if s.Offset != off {
			t.Errorf("split %d offset %d, want %d", i, s.Offset, off)
		}
		off += int64(s.Length)
		if len(s.Hosts) != len(locs[i]) {
			t.Errorf("split %d hosts %v vs locations %v", i, s.Hosts, locs[i])
		}
	}
}

func TestWriterStreaming(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 3, BlockSize: 8, Seed: 4})
	w, err := fs.Writer("f")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i := 0; i < 100; i++ {
		chunk := []byte(fmt.Sprintf("chunk-%03d;", i))
		want.Write(chunk)
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	// File must not be visible before Close.
	if fs.Exists("f") {
		t.Error("file visible before Close")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("streamed content mismatch")
	}
	// Double close is a no-op.
	if err := w.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	// Write after close fails.
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after close succeeded")
	}
}

func TestDefaultConfig(t *testing.T) {
	fs := New(Config{})
	if fs.NumNodes() != 16 {
		t.Errorf("default nodes = %d, want 16", fs.NumNodes())
	}
	cfg := fs.Config()
	if cfg.BlockSize != DefaultBlockSize || cfg.Replication != DefaultReplication {
		t.Errorf("defaults = %+v", cfg)
	}
	if fs.NodeName(0) != "d1" || fs.NodeName(15) != "d16" {
		t.Errorf("node names: %s..%s", fs.NodeName(0), fs.NodeName(15))
	}
}

// quick-checked: ReadRange must equal slicing the full file contents, for
// arbitrary offsets and lengths.
func TestReadRangeQuick(t *testing.T) {
	fs := newFS(t, Config{NumNodes: 3, BlockSize: 7, Seed: 12})
	content := []byte("the quick brown fox jumps over the lazy dog 0123456789")
	if err := fs.Create("f", content); err != nil {
		t.Fatal(err)
	}
	f := func(off int16, n int8) bool {
		o := int64(off)
		if o < 0 {
			o = -o
		}
		ln := int(n)
		if ln < 0 {
			ln = -ln
		}
		got, err := fs.ReadRange("f", o, ln)
		if err != nil {
			return false
		}
		lo := o
		if lo > int64(len(content)) {
			lo = int64(len(content))
		}
		hi := lo + int64(ln)
		if hi > int64(len(content)) {
			hi = int64(len(content))
		}
		return string(got) == string(content[lo:hi])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
