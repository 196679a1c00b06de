package mapreduce_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/mapreduce"
)

// FuzzDecodePairs feeds the worker's shuffle-run decoder arbitrary bytes
// and record counts, with the codecs SPQ jobs ship. Both values reach a
// worker off the wire, inside a net/rpc handler that does not recover: the
// decoder must return an error, never panic, and never allocate more than
// a constant factor of the bytes it was actually handed.
func FuzzDecodePairs(f *testing.F) {
	kc, vc := core.CellKeyCodec(), core.RecCodec()
	encode := func(recs ...core.Rec) []byte {
		var run bytes.Buffer
		w := bufio.NewWriter(&run)
		for i, r := range recs {
			if err := kc.Encode(w, core.CellKey{Cell: 5, Order: float64(i)}); err != nil {
				f.Fatal(err)
			}
			if err := vc.Encode(w, r); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return run.Bytes()
	}
	recs := []core.Rec{
		{Kind: data.DataObject, ID: 7, Loc: geo.Point{X: 0.25, Y: 0.5}},
		{Kind: data.FeatureObject, ID: 1 << 40, Loc: geo.Point{X: 0.3, Y: 0.4}, Len: 300, Hits: 3},
		{Kind: data.FeatureObject, ID: 9, Loc: geo.Point{X: 0.9, Y: 0.1}, Len: 1},
	}
	valid := encode(recs...)
	pairs, err := mapreduce.DecodePairs(valid, len(recs), kc, vc)
	if err != nil || len(pairs) != len(recs) {
		f.Fatalf("valid run: %d pairs, err %v", len(pairs), err)
	}
	for i, p := range pairs {
		if p.Value != recs[i] {
			f.Fatalf("record %d round-tripped as %+v, want %+v", i, p.Value, recs[i])
		}
	}
	// Values the encoder cannot produce. A record is its key (12 bytes),
	// kind (1), id (8) and location (16), then the two count varints.
	head := valid[:12+1+8+16]
	hostile := []struct {
		name string
		run  []byte
	}{
		{"more hits than keywords", encode(core.Rec{Kind: data.FeatureObject, ID: 1, Len: 2, Hits: 3})},
		{"2^40 keywords", append(binary.AppendUvarint(append([]byte(nil), head...), 1<<40), 1)},
		{"data record with counts", encode(core.Rec{Kind: data.DataObject, ID: 1, Len: 4, Hits: 1})},
		{"unknown kind byte", encode(core.Rec{Kind: 7, ID: 1})},
	}
	for _, h := range hostile {
		if _, err := mapreduce.DecodePairs(h.run, 1, kc, vc); err == nil {
			f.Fatalf("%s: decoded without an error", h.name)
		}
		f.Add(h.run, int64(1))
	}

	f.Add(valid, int64(len(recs)))
	f.Add(valid, int64(len(recs)-1)) // trailing record
	f.Add(valid, int64(len(recs)+1)) // one record short
	f.Add(valid[:len(valid)-3], int64(len(recs)))
	f.Add(valid[:13], int64(1))
	f.Add(valid, int64(-1))
	f.Add(valid, int64(1)<<40)
	f.Add([]byte{}, int64(0))

	f.Fuzz(func(t *testing.T, run []byte, records int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pairs, err := mapreduce.DecodePairs(run, int(records), kc, vc)
		runtime.ReadMemStats(&after)
		if err == nil && int64(len(pairs)) != records {
			t.Errorf("decoded %d pairs of %d without an error", len(pairs), records)
		}
		for _, p := range pairs {
			if r := p.Value; r.Hits > r.Len || (r.Kind == data.DataObject && r.Len != 0) || r.Kind > data.FeatureObject {
				t.Errorf("decoded a record the encoder cannot produce: %+v", r)
			}
		}
		// Pair[CellKey, Rec] is 56 bytes and a record at least one; the
		// slack covers the reader's buffer and the error value.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(run)+64<<10); got > limit {
			t.Errorf("decoding %d bytes (records=%d) allocated %d bytes, limit %d", len(run), records, got, limit)
		}
	})
}
