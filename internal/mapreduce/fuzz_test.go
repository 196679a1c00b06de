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
	"spq/internal/text"
)

// FuzzDecodePairs feeds the worker's shuffle-run decoder arbitrary bytes
// and record counts, with the codecs SPQ jobs ship. Both values reach a
// worker off the wire, inside a net/rpc handler that does not recover: the
// decoder must return an error, never panic, and never allocate more than
// a constant factor of the bytes it was actually handed.
func FuzzDecodePairs(f *testing.F) {
	kc, vc := core.CellKeyCodec(), data.ObjectCodec()
	var run bytes.Buffer
	w := bufio.NewWriter(&run)
	objs := []data.Object{
		{Kind: data.DataObject, ID: 7, Loc: geo.Point{X: 0.25, Y: 0.5}},
		{Kind: data.FeatureObject, ID: 1 << 40, Loc: geo.Point{X: 0.3, Y: 0.4}, Keywords: text.NewKeywordSet(3, 17, 900)},
		{Kind: data.FeatureObject, ID: 9, Loc: geo.Point{X: 0.9, Y: 0.1}, Keywords: text.NewKeywordSet(1)},
	}
	for i, o := range objs {
		if err := kc.Encode(w, core.CellKey{Cell: 5, Order: float64(i)}); err != nil {
			f.Fatal(err)
		}
		if err := vc.Encode(w, o); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	valid := run.Bytes()
	if pairs, err := mapreduce.DecodePairs(valid, len(objs), kc, vc); err != nil || len(pairs) != len(objs) {
		f.Fatalf("valid run: %d pairs, err %v", len(pairs), err)
	}
	// One record claiming 2^32 keywords and carrying two: the first record's
	// key (12 bytes), kind (1), id varint (1) and location (16), then the count.
	oversized := append([]byte(nil), valid[:12+1+1+16]...)
	oversized = binary.AppendUvarint(oversized, 1<<32)
	oversized = append(oversized, 1, 2)

	f.Add(valid, int64(len(objs)))
	f.Add(valid, int64(len(objs)-1)) // trailing record
	f.Add(valid, int64(len(objs)+1)) // one record short
	f.Add(valid[:len(valid)-3], int64(len(objs)))
	f.Add(valid[:13], int64(1))
	f.Add(valid, int64(-1))
	f.Add(valid, int64(1)<<40)
	f.Add(oversized, int64(1))
	f.Add([]byte{}, int64(0))

	f.Fuzz(func(t *testing.T, run []byte, records int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pairs, err := mapreduce.DecodePairs(run, int(records), kc, vc)
		runtime.ReadMemStats(&after)
		if err == nil && int64(len(pairs)) != records {
			t.Errorf("decoded %d pairs of %d without an error", len(pairs), records)
		}
		// Pair[CellKey, Object] is 72 bytes and a record at least one, a
		// keyword id 4 bytes and at least one on the wire; the slack covers
		// the reader's buffer and the error value.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(run)+64<<10); got > limit {
			t.Errorf("decoding %d bytes (records=%d) allocated %d bytes, limit %d", len(run), records, got, limit)
		}
	})
}
