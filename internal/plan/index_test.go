package plan

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/text"
)

// The index must change no plan: PlanGenerations returns exactly the
// scan oracle's Decision (scanPlan, plan_test.go) on random manifests,
// deltas, radii and keyword sets, and its survivors obey the monotonicity
// relations a missed bucket would break.

// family places an instance's coordinates: offset + p·scale for p in the
// unit square. The tiny scale makes every squared gap underflow to 0 (so
// MINDIST 0 passes pairs that do not touch), the huge one makes squares
// overflow, and the offset one rounds every coordinate-plus-radius sum.
type family struct{ scale, offset float64 }

var families = []family{{1, 0}, {1, 0}, {1, 0}, {1e-163, 0}, {1e300, 0}, {1, 1e6}}

// instance is a sealed manifest and, for every other one, a delta cut
// over its seal grid.
type instance struct {
	fam    family
	m      *data.Manifest
	dd, df []data.CellStats
}

// randomPoint draws a point of the unit square, often on a multiple of
// 1/16 — an edge of every power-of-two seal grid and bucket grid — and,
// for a delta, sometimes outside the square, where the seal grid clamps
// it into an edge cell.
func randomPoint(r *rand.Rand, spill bool) geo.Point {
	switch k := r.Intn(10); {
	case k < 3:
		return geo.Point{X: float64(r.Intn(17)) / 16, Y: float64(r.Intn(17)) / 16}
	case spill && k < 5:
		return geo.Point{X: r.Float64()*2 - 0.5, Y: r.Float64()*2 - 0.5}
	default:
		return geo.Point{X: r.Float64(), Y: r.Float64()}
	}
}

// randomObjects draws n objects, every other one a feature whose keyword
// names its third of the square, so keyword and distance pruning
// interact.
func randomObjects(r *rand.Rand, n int, id uint64, fam family, spill bool, dict *text.Dict) []data.Object {
	objs := make([]data.Object, n)
	for i := range objs {
		p := randomPoint(r, spill)
		objs[i] = data.Object{Kind: data.DataObject, ID: id + uint64(i),
			Loc: geo.Point{X: fam.offset + p.X*fam.scale, Y: fam.offset + p.Y*fam.scale}}
		if i%2 == 1 {
			region := int(min(max(p.X, 0), 0.99)*3) + 3*int(min(max(p.Y, 0), 0.99)*3)
			words := []string{fmt.Sprintf("w%d", region)}
			if r.Intn(4) == 0 {
				words = append(words, fmt.Sprintf("w%d", r.Intn(9)))
			}
			objs[i].Kind, objs[i].Keywords = data.FeatureObject, dict.InternAll(words)
		}
	}
	return objs
}

func randomInstance(r *rand.Rand) instance {
	fam := families[r.Intn(len(families))]
	dict := text.NewDict()
	sealN := 1 + r.Intn(16)
	g := grid.New(geo.Rect{MinX: fam.offset, MinY: fam.offset, MaxX: fam.offset + fam.scale, MaxY: fam.offset + fam.scale}, sealN, sealN)
	in := instance{fam: fam,
		m: sealCut(data.PartitionObjects(g, randomObjects(r, 20+r.Intn(300), 1, fam, false, dict)), "base", dict, 1+r.Intn(8))}
	if r.Intn(2) == 0 {
		d := sealCut(data.PartitionObjects(g, randomObjects(r, 10+r.Intn(100), 1e6, fam, true, dict)), "delta", dict, 1+r.Intn(8))
		in.dd, in.df = d.Data, d.Features
	}
	return in
}

// radii returns the radii to plan at: zero, tiny, typical, beyond the
// diagonal, overflowing, and exact MINDISTs between random blocks — the
// boundary of the distance test — with their neighbouring floats.
func (in instance) radii(r *rand.Rand) []float64 {
	s := in.fam.scale
	rs := []float64{0, 1e-6, 1e-6 * s, 0.02 * s, 0.1 * s, 2 * s, 1e20, math.MaxFloat64}
	var units []unit
	for _, cells := range [][]data.CellStats{in.m.Data, in.m.Features, in.dd, in.df} {
		units = append(units, explode(cells)...)
	}
	for i := 0; i < 4; i++ {
		a, b := units[r.Intn(len(units))], units[r.Intn(len(units))]
		d := math.Sqrt(geo.RectMinDist2(a.bounds, b.bounds))
		rs = append(rs, d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)))
	}
	return rs
}

// randomWords draws up to three query words, in-vocabulary (w0..w8) or
// not.
func randomWords(r *rand.Rand) []string {
	words := make([]string, r.Intn(4))
	for i := range words {
		words[i] = fmt.Sprintf("w%d", r.Intn(10)) // w9 occurs nowhere
	}
	return words
}

// TestPlanMatchesScanOracle: the index's Decision equals the scan
// oracle's, field for field, with and without a delta.
func TestPlanMatchesScanOracle(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	partial := 0
	const instances, queries = 300, 20
	for i := 0; i < instances; i++ {
		inst := randomInstance(r)
		radii := inst.radii(r)
		for q := 0; q < queries; q++ {
			in := Input{Radius: radii[r.Intn(len(radii))], Keywords: randomWords(r)}
			dd, df := inst.dd, inst.df
			if q%2 == 0 {
				dd, df = nil, nil
			}
			got, want := PlanGenerations(inst.m, dd, df, in), scanPlan(inst.m, dd, df, in)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("instance %d (scale %g, offset %g, seal %d), query %+v, delta %v: index plan differs from the scan\nindex: %+v\nscan:  %+v",
					i, inst.fam.scale, inst.fam.offset, inst.m.Grid.N, in, dd != nil, got, want)
			}
			if got.Stats.BlocksPruned > 0 && got.Stats.BlocksPruned < got.Stats.Blocks {
				partial++
			}
		}
	}
	// The instances must exercise pruning, not only all-or-nothing plans.
	if partial < instances*queries/4 {
		t.Errorf("only %d of %d plans pruned some but not all blocks", partial, instances*queries)
	}
}

// TestPlanReachAtBucketEdge: a radius equal to the exact gap between a
// data block and a feature block whose edge lies on a bucket boundary
// keeps the pair, as the scan does. The data block's edge plus the radius,
// less the grid's origin, can round below the boundary: only the lookup's
// widening keeps the feature block's bucket in range.
func TestPlanReachAtBucketEdge(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	bloom := data.NewKeywordBloom()
	bloom.Add("w")
	cell := func(file string, b geo.Rect, kw data.KeywordBloom) data.CellStats {
		return data.CellStats{File: file, Records: 1, Bounds: b, Keywords: kw,
			Blocks: []data.BlockStats{{Records: 1, Bounds: b, Keywords: kw}}}
	}
	for trial := 0; trial < 1000; trial++ {
		// 16 blocks spanning [lo, hi]²: 4x4 buckets of width w from
		// origin lo. The feature block's left edge b is a bucket boundary
		// and the data blocks lie left of it.
		lo := -r.Float64()
		hi := lo + 1
		w := newAxis(lo, hi, 4).w
		b := lo + float64(1+r.Intn(3))*w
		m := &data.Manifest{Grid: data.GridSpec{Bounds: geo.Rect{MinX: lo, MinY: lo, MaxX: hi, MaxY: hi}, N: 1},
			Data:     []data.CellStats{cell("d", geo.Rect{MinX: lo, MinY: lo, MaxX: lo, MaxY: lo}, nil)},
			Features: []data.CellStats{cell("f", geo.Rect{MinX: b, MinY: 0, MaxX: hi, MaxY: hi}, bloom)}}
		for i := 0; i < 14; i++ {
			x := lo + r.Float64()*(b-lo)
			m.Data = append(m.Data, cell(fmt.Sprint("d", i), geo.Rect{MinX: x, MinY: 0, MaxX: x, MaxY: 0}, nil))
		}
		for _, cs := range m.Data[1:] {
			in := Input{Radius: b - cs.Bounds.MaxX, Keywords: []string{"w"}} // exactly RectMinDist2's dx
			if got, want := PlanGenerations(m, nil, nil, in), scanPlan(m, nil, nil, in); !reflect.DeepEqual(got, want) {
				t.Fatalf("feature edge %v, data edge %v, radius %v: index plan differs from the scan\nindex: %+v\nscan:  %+v",
					b, cs.Bounds.MaxX, in.Radius, got, want)
			}
		}
	}
}

// TestPlanConcurrentFirstUse: queries racing to plan a fresh generation
// build its index once and all get the scan's plan.
func TestPlanConcurrentFirstUse(t *testing.T) {
	m := buildColumnarManifest(t, 4, 8)
	dd, df := buildDelta(m, 0.5, 0.5, "c", 200)
	in := Input{Radius: 0.05, Keywords: []string{"a3", "c1"}}
	want := scanPlan(m, dd, df, in)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := PlanGenerations(m, dd, df, in); !reflect.DeepEqual(got, want) {
				t.Error("concurrent plan differs from the scan")
			}
		}()
	}
	wg.Wait()
}

// kept returns the surviving blocks of a plan, data and features, base
// and delta, as "file#block".
func kept(d *Decision) map[string]bool {
	out := make(map[string]bool)
	for file, blocks := range d.Blocks {
		for _, b := range blocks {
			out[fmt.Sprintf("%s#%d", file, b)] = true
		}
	}
	return out
}

func missing(sub, super map[string]bool) []string {
	var out []string
	for k := range sub {
		if !super[k] {
			out = append(out, k)
		}
	}
	return out
}

// TestPlanSurvivorsMonotone: a block kept at radius r₁ is kept at every
// r₂ ≥ r₁, and a block kept for keywords W₁ is kept for every W₂ ⊇ W₁.
// (At r = MaxFloat64 every keyword survivor with any data block survives
// steps 2 and 3, so the keyword relation is step 1's there.) Neither
// relation needs an oracle; a bucket lookup that misses a neighbour
// breaks both.
func TestPlanSurvivorsMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		inst := randomInstance(r)
		radii := inst.radii(r)
		sort.Float64s(radii)
		w1 := randomWords(r)
		w2 := append(append([]string(nil), w1...), fmt.Sprintf("w%d", r.Intn(9)))
		var prev map[string]bool
		for _, rad := range radii {
			plan := func(words []string) map[string]bool {
				return kept(PlanGenerations(inst.m, inst.dd, inst.df, Input{Radius: rad, Keywords: words}))
			}
			cur := plan(w1)
			if lost := missing(prev, cur); len(lost) > 0 {
				t.Fatalf("instance %d, W %v: radius %g drops %v kept at a smaller radius", i, w1, rad, lost)
			}
			if lost := missing(cur, plan(w2)); len(lost) > 0 {
				t.Fatalf("instance %d, radius %g: W %v drops %v kept for its subset %v", i, rad, w2, lost, w1)
			}
			prev = cur
		}
	}
}

// shifted copies cells as a delta: renamed, with every block moved by
// (dx, dy).
func shifted(cells []data.CellStats, dx, dy float64) []data.CellStats {
	out := make([]data.CellStats, len(cells))
	for i, cs := range cells {
		cs.File = "delta-" + cs.File
		cs.Blocks = append([]data.BlockStats(nil), cs.Blocks...)
		for j := range cs.Blocks {
			b := &cs.Blocks[j].Bounds
			b.MinX, b.MaxX, b.MinY, b.MaxY = b.MinX+dx, b.MaxX+dx, b.MinY+dy, b.MaxY+dy
		}
		out[i] = cs
	}
	return out
}

// decodeManifest reads a JSON-encoded manifest and rejects one a seal
// cannot produce: a seal grid under 1x1, a bloom on a data cell or block,
// a feature cell or block whose bloom is not full-size, a cell without
// zone maps, a block without records, a frame of negative length or
// before its predecessor's end, or zone maps whose records do not sum to
// their cell's. FuzzPlanManifest plans what it accepts.
func decodeManifest(raw []byte) (*data.Manifest, error) {
	var m data.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	if m.Grid.N <= 0 {
		return nil, fmt.Errorf("seal grid %dx%d", m.Grid.N, m.Grid.N)
	}
	bloom := len(data.NewKeywordBloom())
	for _, kind := range []struct {
		cells []data.CellStats
		bloom int
	}{{m.Data, 0}, {m.Features, bloom}} {
		for _, cs := range kind.cells {
			if len(cs.Keywords) != kind.bloom || len(cs.Blocks) == 0 {
				return nil, fmt.Errorf("cell %d: %d-byte bloom, %d zone maps", cs.Cell, len(cs.Keywords), len(cs.Blocks))
			}
			records, next := 0, int64(0)
			for i, bs := range cs.Blocks {
				if bs.Records <= 0 || bs.Length < 0 || bs.Offset < next || len(bs.Keywords) != kind.bloom {
					return nil, fmt.Errorf("cell %d block %d: %+v", cs.Cell, i, bs)
				}
				records, next = records+bs.Records, bs.Offset+int64(bs.Length)
			}
			if records != cs.Records {
				return nil, fmt.Errorf("cell %d: blocks hold %d records, cell says %d", cs.Cell, records, cs.Records)
			}
		}
	}
	return &m, nil
}

// FuzzPlanManifest: any manifest decodeManifest accepts plans — for any
// radius and keywords, with and without a delta derived from it — without
// panicking, exactly as the scan oracle does, and with allocations bounded
// by its block count, whatever seal grid size it claims.
func FuzzPlanManifest(f *testing.F) {
	seed := func(edit func(m *data.Manifest)) []byte {
		m := buildColumnarManifest(f, 2, 50) // few blocks: small inputs minimize fast
		edit(m)
		raw, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	plain := seed(func(*data.Manifest) {})
	f.Add(plain, 0.02, "a3", 0.0, 0.0)
	f.Add(plain, 0.05, "a1,b2,zz", 0.6, -0.7)
	f.Add(plain, math.MaxFloat64, "b4", 3.0, 3.0)
	f.Add(seed(func(m *data.Manifest) { m.Grid.N = 1 << 30 }), 0.1, "a2,b2", 0.25, 0.0)
	f.Add(seed(func(m *data.Manifest) {
		m.Grid.Bounds = geo.Rect{MinX: -1e308, MinY: -1e308, MaxX: 1e308, MaxY: 1e308}
		m.Data[0].Blocks[0].Bounds = geo.Rect{MinX: -1e308, MinY: -1e308, MaxX: -1e308, MaxY: -1e308}
		last := &m.Features[len(m.Features)-1]
		last.Blocks[0].Bounds = geo.Rect{MinX: 1e308, MinY: 1e308, MaxX: 1e308, MaxY: 1e308}
	}), 1e300, "a1,b1", -1e308, 1e308)
	f.Add(seed(func(m *data.Manifest) {
		// An inverted rectangle, as only a hand-made manifest has: wide
		// once its edges are put in order, so that it overlaps a wide
		// feature block.
		m.Data[0].Blocks[0].Bounds = geo.Rect{MinX: 0.8, MinY: 0.2, MaxX: 0.2, MaxY: 0.25}
		last := &m.Features[len(m.Features)-1]
		last.Blocks[0].Bounds = geo.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.3}
	}), 0.01, "b1,b3", 0.0, 0.0)
	f.Fuzz(func(t *testing.T, raw []byte, radius float64, words string, dx, dy float64) {
		m, err := decodeManifest(raw)
		if err != nil {
			return
		}
		if math.IsNaN(dx) || math.IsInf(dx, 0) || math.IsNaN(dy) || math.IsInf(dy, 0) {
			dx, dy = 0, 0 // the engine admits finite coordinates only
		}
		dd, df := shifted(m.Data, dx, dy), shifted(m.Features, dx, dy)
		in := Input{Radius: radius, Keywords: strings.Split(words, ",")}
		blocks := 0
		for _, cs := range append(append([]data.CellStats(nil), m.Data...), m.Features...) {
			blocks += len(cs.Blocks)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		base := PlanGenerations(m, nil, nil, in)
		withDelta := PlanGenerations(m, dd, df, in)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+4096*blocks); alloc > limit {
			t.Fatalf("planning %d blocks (seal grid %d) allocated %d bytes, over %d", blocks, m.Grid.N, alloc, limit)
		}
		if want := scanPlan(m, nil, nil, in); !reflect.DeepEqual(base, want) {
			t.Fatalf("index plan differs from the scan\nindex: %+v\nscan:  %+v", base, want)
		}
		if want := scanPlan(m, dd, df, in); !reflect.DeepEqual(withDelta, want) {
			t.Fatalf("index plan with delta differs from the scan\nindex: %+v\nscan:  %+v", withDelta, want)
		}
	})
}

// flManifest is an FL-like generation: the query_hot corpus size (200,000
// objects, hotspot-skewed, Zipfian keywords) sealed over the default
// 32x32 grid, about 1,200 blocks per kind, plus a delta of 5,000 more
// objects cut over the same grid.
var flManifest = sync.OnceValues(func() (*data.Manifest, [2][]data.CellStats) {
	ds := data.Generate(data.FlickrSpec(200000))
	g := grid.New(ds.Bounds(), 32, 32)
	m, _ := data.PartitionObjects(g, ds.Objects()).SealBlocks("fl", ds.Dict)
	spec := data.FlickrSpec(5000)
	spec.Seed = 5
	dds := data.Generate(spec)
	for i := range dds.Data {
		dds.Data[i].ID += 1 << 32
	}
	for i := range dds.Features {
		dds.Features[i].ID += 1 << 32
	}
	delta, _ := data.PartitionObjects(g, dds.Objects()).SealBlocks("fl-delta", dds.Dict)
	return m, [2][]data.CellStats{delta.Data, delta.Features}
})

var benchDecision *Decision

// BenchmarkPlanGenerations times one plan of a query_hot-shaped query (3
// mid-frequency keywords, r = 0.02) with and without a delta, the one-time
// index build, and the scan oracle for comparison. The build reports the
// index's retained bytes per block.
func BenchmarkPlanGenerations(b *testing.B) {
	m, delta := flManifest()
	in := Input{Radius: 0.02, Keywords: []string{"w300", "w700", "w1500"}}
	indexOf(m) // the index is per generation, not per query
	for _, c := range []struct {
		name   string
		dd, df []data.CellStats
		plan   func(*data.Manifest, []data.CellStats, []data.CellStats, Input) *Decision
	}{
		{"base", nil, nil, PlanGenerations},
		{"delta", delta[0], delta[1], PlanGenerations},
		{"scan-base", nil, nil, scanPlan},
		{"scan-delta", delta[0], delta[1], scanPlan},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchDecision = c.plan(m, c.dd, c.df, in)
			}
		})
	}
	b.Run("index-build", func(b *testing.B) {
		b.ReportAllocs()
		var ix *index
		for i := 0; i < b.N; i++ {
			ix = newIndex(m)
		}
		units, size := 0, 0
		for _, l := range []layer{ix.data, ix.features} {
			units += len(l.units)
			size += len(l.units)*int(unsafe.Sizeof(unit{})) + 4*(len(l.start)+len(l.ids))
		}
		b.ReportMetric(float64(units), "blocks")
		b.ReportMetric(float64(size)/float64(units), "B/block")
	})
}
