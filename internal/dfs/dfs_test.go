package dfs

import (
	"bytes"
	"errors"
	"fmt"
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
	locs, err := fs.BlockLocations("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 0 {
		t.Errorf("empty file has %d blocks", len(locs))
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
	if _, err := fs.ReadRange("nope", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReadRange missing = %v, want ErrNotFound", err)
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
