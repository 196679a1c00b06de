package core

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// randomSet draws n distinct keyword ids below vocab.
func randomSet(r *rand.Rand, n, vocab int) text.KeywordSet {
	ids := make([]uint32, n)
	for i, v := range r.Perm(vocab)[:n] {
		ids[i] = uint32(v)
	}
	return text.NewKeywordSet(ids...)
}

// TestScoreFromCountsMatchesSets: the reduce phase scores a feature from
// the two counts the Map phase kept. That score must equal text.Jaccard and
// Query.Score over the sets bit for bit — including disjoint sets, features
// shorter than the query, the empty feature, and pairs past the dense
// intersection kernel's cutoff.
func TestScoreFromCountsMatchesSets(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3000; trial++ {
		vocab := 2 + r.Intn(300)
		q := Query{K: 1, Keywords: randomSet(r, 1+r.Intn(min(vocab, 12)), vocab)}
		fLen := r.Intn(min(vocab, 120) + 1)
		switch trial % 5 {
		case 0:
			fLen = r.Intn(q.Keywords.Len()) // |f.W| < |q.W|, down to empty
		case 1:
			vocab = 4000 // sparse ids: the intersection is nearly always empty
		}
		f := data.Object{Kind: data.FeatureObject, ID: uint64(trial), Keywords: randomSet(r, fLen, vocab)}
		rec := q.newRec(f)
		if int(rec.Len) != f.Keywords.Len() || int(rec.Hits) != q.Keywords.IntersectionSize(f.Keywords) {
			t.Fatalf("trial %d: rec counts (%d, %d), want (%d, %d)", trial, rec.Len, rec.Hits,
				f.Keywords.Len(), q.Keywords.IntersectionSize(f.Keywords))
		}
		got := math.Float64bits(q.score(rec))
		if want := math.Float64bits(text.Jaccard(q.Keywords, f.Keywords)); got != want {
			t.Fatalf("trial %d: score from counts %x, text.Jaccard %x (q=%v f=%v)", trial, got, want, q.Keywords, f.Keywords)
		}
		if want := math.Float64bits(q.Score(f)); got != want {
			t.Fatalf("trial %d: score from counts %x, Query.Score %x", trial, got, want)
		}
	}
	q := Query{K: 1, Keywords: text.NewKeywordSet(1, 2)}
	if s := q.score(q.newRec(data.Object{Kind: data.DataObject, ID: 1})); s != 0 {
		t.Errorf("data record scores %g", s)
	}
}

func TestRecCodecRoundTrip(t *testing.T) {
	codec := RecCodec()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		rec := Rec{ID: r.Uint64(), Loc: geo.Point{X: r.NormFloat64() * 100, Y: r.NormFloat64() * 100}}
		if r.Intn(2) == 1 {
			rec.Kind = data.FeatureObject
			rec.Len = r.Uint32() >> uint(r.Intn(32))
			rec.Hits = uint32(r.Int63n(int64(rec.Len) + 1))
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := codec.Encode(w, rec); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		br := bufio.NewReader(&buf)
		got, err := codec.Decode(br)
		if err != nil {
			t.Fatal(err)
		}
		if got != rec || br.Buffered() != 0 {
			t.Fatalf("codec round trip: got %+v (%d bytes left), want %+v", got, br.Buffered(), rec)
		}
	}
}

// memSegments serves sealed segment bytes to a ColInput.
type memSegments map[string][]byte

func (m memSegments) ReadRange(file string, off int64, n int) ([]byte, error) {
	return m[file][off : off+int64(n)], nil
}

// emitted is one map output pair, flattened for comparison.
type emitted struct {
	Cell      grid.CellID
	Order     float64
	ID        uint64
	Len, Hits uint32
}

// TestBlockMapMatchesRecordMap: mapping a columnar split as a decoded block
// must emit exactly what mapping its records one at a time emits — the same
// multiset of (cell, order, id, |f.W|, hits), and the same record and
// duplication counters — for all three algorithms, over blocks with sparse
// and bitmap postings, query keywords that match none, one or several
// dictionary entries, and features near cell edges that duplicate into
// neighbours.
func TestBlockMapMatchesRecordMap(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	dict := text.NewDict()
	// Keywords 0..2 are dense (bitmap postings), 3..40 sparse; 900+ occur
	// nowhere. Locations cluster on the 4x4 grid's lines so that duplication
	// across cell edges is common.
	var objs []data.Object
	for i := 0; i < 900; i++ {
		var ids []uint32
		for kw := uint32(0); kw < 3; kw++ {
			if r.Intn(3) > 0 {
				ids = append(ids, kw)
			}
		}
		for n := r.Intn(6); n > 0; n-- {
			ids = append(ids, uint32(3+r.Intn(38)))
		}
		objs = append(objs, data.Object{
			Kind: data.FeatureObject, ID: uint64(i),
			Loc:      geo.Point{X: float64(r.Intn(5))/4 + r.NormFloat64()*0.01, Y: r.Float64()},
			Keywords: text.NewKeywordSet(ids...),
		})
	}
	for i := range objs {
		objs[i].Loc.X = math.Min(math.Max(objs[i].Loc.X, 0), 1)
	}
	var seg bytes.Buffer
	cw := data.NewCol3Writer(&seg, data.FeatureObject, dict, 200)
	for _, o := range objs {
		if err := cw.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	cell := data.CellStats{File: "seg", Records: len(objs), Blocks: cw.Stats()}
	newInput := func() mapreduce.Source[data.Object] {
		in := data.NewColInput(memSegments{"seg": seg.Bytes()}, []data.ColSel{{Cell: cell}}, nil, 1)
		return mapreduce.Coalesce[data.Object](in, 2)
	}

	g := grid.New(unitBounds, 4, 4)
	queries := map[string]text.KeywordSet{
		"none":          text.NewKeywordSet(900, 901),
		"one sparse":    text.NewKeywordSet(17),
		"one dense":     text.NewKeywordSet(1, 950),
		"several mixed": text.NewKeywordSet(0, 2, 5, 9, 33, 999),
	}
	for name, kws := range queries {
		for _, alg := range Algorithms() {
			q := Query{K: 3, Radius: 0.03, Keywords: kws}
			run := func(batch bool) ([]emitted, map[string]int64) {
				job, err := buildJob(alg, g, q, Options{GridN: 4, NumReducers: 3})
				if err != nil {
					t.Fatal(err)
				}
				var batches atomic.Int64
				if batch {
					mapBlock := job.MapBatch
					job.MapBatch = func(ctx *taskCtx, b any, emit func(CellKey, Rec)) (int, error) {
						batches.Add(1)
						return mapBlock(ctx, b, emit)
					}
				} else {
					job.MapBatch = nil
				}
				job.Source = newInput()
				var mu sync.Mutex
				var out []emitted
				job.Reduce = func(_ *taskCtx, values *valueIter, _ func([]ResultItem)) error {
					mu.Lock()
					defer mu.Unlock()
					for {
						v, ok := values.Next()
						if !ok {
							return nil
						}
						k := values.Key()
						out = append(out, emitted{k.Cell, k.Order, v.ID, v.Len, v.Hits})
					}
				}
				res, err := mapreduce.Run(mapreduce.NewCluster(nil, 2, 2), job)
				if err != nil {
					t.Fatal(err)
				}
				if batch && int(batches.Load()) != len(cell.Blocks) {
					// The splits sit inside Coalesce's groups.
					t.Fatalf("block map saw %d of %d blocks", batches.Load(), len(cell.Blocks))
				}
				sort.Slice(out, func(i, j int) bool {
					if out[i].Cell != out[j].Cell {
						return out[i].Cell < out[j].Cell
					}
					return out[i].ID < out[j].ID
				})
				return out, res.Counters
			}
			label := fmt.Sprintf("%s/%v", name, alg)
			block, blockCounters := run(true)
			record, recordCounters := run(false)
			if !reflect.DeepEqual(block, record) {
				t.Fatalf("%s: block map emitted %d pairs, record map %d, or they differ", label, len(block), len(record))
			}
			for _, c := range []string{mapreduce.CounterMapRecordsIn, mapreduce.CounterMapRecordsOut, CounterDuplicates, CounterFeaturesPruned} {
				if blockCounters[c] != recordCounters[c] {
					t.Errorf("%s: %s = %d through the block map, %d through the record map", label, c, blockCounters[c], recordCounters[c])
				}
			}
			if blockCounters[mapreduce.CounterMapRecordsIn] != int64(len(objs)) {
				t.Errorf("%s: map.records.in = %d, want %d", label, blockCounters[mapreduce.CounterMapRecordsIn], len(objs))
			}
			if name == "several mixed" && (blockCounters[CounterDuplicates] == 0 || blockCounters[CounterFeaturesPruned] == 0) {
				t.Errorf("%s: duplicated %d, pruned %d: the corpus exercises neither", label,
					blockCounters[CounterDuplicates], blockCounters[CounterFeaturesPruned])
			}
			if name == "none" && len(block) != 0 {
				t.Errorf("%s: %d pairs emitted for a query matching nothing", label, len(block))
			}
		}
	}
}
