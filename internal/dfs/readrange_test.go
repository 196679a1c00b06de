package dfs

import (
	"bytes"
	"sync"
	"testing"
)

// ownershipFile creates a 48-byte file of three 16-byte blocks, each on 3
// of 4 nodes, and returns the file system and the contents.
func ownershipFile(t *testing.T, faults *FaultPlan) (*FileSystem, []byte) {
	t.Helper()
	fs := newFS(t, Config{NumNodes: 4, BlockSize: 16, Replication: 3, Seed: 3, Faults: faults})
	content := []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKL")
	if err := fs.Create("f", content); err != nil {
		t.Fatal(err)
	}
	return fs, content
}

// TestReadRangeOwnership pins the buffer rule of ReadRange: a range inside
// one block is the replica's bytes capped at the range (capacity equal to
// length), a range across blocks is a private buffer, and bytes already
// returned never change when the replica they came from is corrupted,
// quarantined and replaced by read repair and Repair.
func TestReadRangeOwnership(t *testing.T) {
	fs, content := ownershipFile(t, nil)

	in, err := fs.ReadRange("f", 18, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, content[18:28]) || cap(in) != len(in) {
		t.Fatalf("in-block range = %q with cap %d, want %q with cap %d", in, cap(in), content[18:28], len(in))
	}

	across, err := fs.ReadRange("f", 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(across, content[10:22]) {
		t.Fatalf("cross-block range = %q, want %q", across, content[10:22])
	}
	clear(across) // a private buffer: scribbling on it reaches no replica
	if again, err := fs.ReadRange("f", 10, 12); err != nil || !bytes.Equal(again, content[10:22]) {
		t.Fatalf("after writing into a cross-block range, a re-read = %q, %v", again, err)
	}

	// Corrupt the replica the in-block read was served from (the first of
	// the block's replicas, all healthy), then read it again: the read
	// fails over, quarantines it and repairs the block; Repair runs too.
	held := bytes.Clone(in)
	b1 := blockReplicas(t, fs, "f", 1)
	corruptReplicaCopy(fs, b1.replicas[0], b1.id)
	if again, err := fs.ReadRange("f", 18, 10); err != nil || !bytes.Equal(again, content[18:28]) {
		t.Fatalf("read after corruption = %q, %v", again, err)
	}
	if st := fs.FaultStats(); st.ReplicasQuarantined != 1 || st.RepairedBlocks == 0 {
		t.Fatalf("fault stats %+v: the corrupt replica was not quarantined and repaired", st)
	}
	fs.Repair()
	if !bytes.Equal(in, held) {
		t.Fatalf("held range changed to %q after quarantine and repair, was %q", in, held)
	}
}

// TestReadRangeInBlockAllocs pins a read inside one block, without a fault
// plan, at zero allocations: no copy, no global read index, no error
// value.
func TestReadRangeInBlockAllocs(t *testing.T) {
	fs, _ := ownershipFile(t, nil)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := fs.ReadRange("f", 18, 10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("an in-block ReadRange made %.1f allocations, want 0", allocs)
	}
}

// TestChaosReadRangeOwnership reads in-block and cross-block ranges from
// several goroutines while others corrupt replicas, kill and revive nodes
// and run Repair. Every range must read the file's bytes, and every range
// a reader still holds must keep them. Run under -race: a replica written
// in place while a reader holds its bytes is a reported race.
func TestChaosReadRangeOwnership(t *testing.T) {
	fs, content := ownershipFile(t, &FaultPlan{Seed: 5, TransientReadProb: 0.1})
	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fs.mu.RLock()
			b := fs.files["f"].blocks[i%3]
			fs.mu.RUnlock()
			corruptReplicaCopy(fs, b.replicas[i%len(b.replicas)], b.id)
			if i%4 == 0 {
				fs.KillNode(i / 4 % 4)
				fs.Repair()
				fs.ReviveNode(i / 4 % 4)
			}
			fs.Repair()
		}
	}()
	var readers sync.WaitGroup
	for g := range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			type held struct {
				got  []byte
				want []byte
			}
			var kept []held
			for i := range 300 {
				off := int64((g*7 + i*5) % 40)
				n := 1 + (i*3+g)%8
				got, err := fs.ReadRange("f", off, n)
				if err != nil {
					continue // every replica of a block was briefly unusable
				}
				want := content[off : off+int64(n)]
				if !bytes.Equal(got, want) {
					t.Errorf("reader %d: range %d+%d = %q, want %q", g, off, n, got, want)
					return
				}
				kept = append(kept, held{got, want})
			}
			for _, h := range kept {
				if !bytes.Equal(h.got, h.want) {
					t.Errorf("reader %d: a held range changed to %q, want %q", g, h.got, h.want)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	chaos.Wait()
}
