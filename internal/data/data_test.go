package data

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"spq/internal/geo"
	"spq/internal/text"
)

func TestLineRoundTrip(t *testing.T) {
	dict := text.NewDict()
	kws := dict.InternAll([]string{"italian", "gourmet"})
	objs := []Object{
		{Kind: DataObject, ID: 7, Loc: geo.Point{X: 4.6, Y: 4.8}},
		{Kind: FeatureObject, ID: 9, Loc: geo.Point{X: 2.8, Y: 1.2}, Keywords: kws},
		{Kind: FeatureObject, ID: 10, Loc: geo.Point{X: 0, Y: 0}}, // no keywords
	}
	for _, o := range objs {
		var buf bytes.Buffer
		if err := EncodeLine(&buf, o, dict); err != nil {
			t.Fatal(err)
		}
		line := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		got, err := ParseLine(line, dict)
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", line, err)
		}
		if got.Kind != o.Kind || got.ID != o.ID || got.Loc != o.Loc || !got.Keywords.Equal(o.Keywords) {
			t.Errorf("round trip: got %+v, want %+v", got, o)
		}
	}
}

func TestParseLineErrors(t *testing.T) {
	dict := text.NewDict()
	bad := []string{
		"",
		"D\t1\t2",       // too few fields
		"X\t1\t2\t3",    // unknown kind
		"D\tnope\t2\t3", // bad id
		"D\t1\tnope\t3", // bad x
		"D\t1\t2\tnope", // bad y
	}
	for _, line := range bad {
		if _, err := ParseLine([]byte(line), dict); err == nil {
			t.Errorf("ParseLine(%q) succeeded, want error", line)
		}
	}
}

func TestParseLineIntoFreshDict(t *testing.T) {
	dictA := text.NewDict()
	kws := dictA.InternAll([]string{"sushi", "wine"})
	var buf bytes.Buffer
	o := Object{Kind: FeatureObject, ID: 3, Loc: geo.Point{X: 1, Y: 2}, Keywords: kws}
	if err := EncodeLine(&buf, o, dictA); err != nil {
		t.Fatal(err)
	}
	dictB := text.NewDict()
	got, err := ParseLine(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), dictB)
	if err != nil {
		t.Fatal(err)
	}
	words := dictB.Words(got.Keywords)
	sortSlice(words, func(a, b string) bool { return a < b })
	if !reflect.DeepEqual(words, []string{"sushi", "wine"}) {
		t.Errorf("words through fresh dict = %v", words)
	}
}

// FuzzParseLine feeds the text record parser arbitrary lines. It is the
// one parser of the ingest and interchange format (LoadLines, LoadFile):
// it must return an error, never panic, and never allocate more than a
// constant factor of the line. A line that parses must survive the codec:
// EncodeLine then ParseLine gives back the same object.
func FuzzParseLine(f *testing.F) {
	dict := text.NewDict()
	for _, o := range []Object{
		{Kind: DataObject, ID: 7, Loc: geo.Point{X: 4.6, Y: 4.8}},
		{Kind: FeatureObject, ID: 1 << 40, Loc: geo.Point{X: -2.8e-9, Y: 1.2}, Keywords: dict.InternAll([]string{"italian", "gourmet"})},
		{Kind: FeatureObject, ID: 10}, // no keywords
	} {
		var buf bytes.Buffer
		if err := EncodeLine(&buf, o, dict); err != nil {
			f.Fatal(err)
		}
		line := buf.Bytes()
		f.Add(line)
		f.Add(line[:len(line)/2])                                // truncated
		f.Add(bytes.ReplaceAll(line, []byte("\t"), []byte(" "))) // tabs mangled
	}
	f.Add([]byte("D\t1\tNaN\t+Inf"))
	f.Add([]byte("F\t2\t0x1p-2\t-0\t,a,,b,"))
	f.Add([]byte("F\t4\t1\t2\t,"))
	f.Add([]byte("D\t18446744073709551616\t1\t2"))
	f.Add([]byte("F\t3\t1\t2\t" + strings.Repeat("w,", 4096)))
	f.Add([]byte("\t\t\t\t\t\t"))

	f.Fuzz(func(t *testing.T, line []byte) {
		dict := text.NewDict()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o, err := ParseLine(line, dict)
		runtime.ReadMemStats(&after)
		// A line is copied, split into fields and keywords, and every new
		// keyword interned; the slack covers the error value and the
		// dictionary's first allocations.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(line)+64<<10); got > limit {
			t.Errorf("parsing %d bytes allocated %d bytes, limit %d", len(line), got, limit)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeLine(&buf, o, dict); err != nil {
			t.Fatalf("parsed %q into %+v, which does not encode: %v", line, o, err)
		}
		back, err := ParseLine(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), dict)
		if err != nil {
			t.Fatalf("%q re-encoded as %q, which does not parse: %v", line, buf.Bytes(), err)
		}
		if back.Kind != o.Kind || back.ID != o.ID ||
			math.Float64bits(back.Loc.X) != math.Float64bits(o.Loc.X) ||
			math.Float64bits(back.Loc.Y) != math.Float64bits(o.Loc.Y) ||
			!back.Keywords.Equal(o.Keywords) {
			t.Errorf("%q parsed as %+v, which round-trips through %q as %+v", line, o, buf.Bytes(), back)
		}
	})
}

func TestGenerateSplitsHalfAndHalf(t *testing.T) {
	ds := Generate(UniformSpec(1001))
	if len(ds.Data) != 500 || len(ds.Features) != 501 {
		t.Errorf("|O|=%d |F|=%d, want 500/501", len(ds.Data), len(ds.Features))
	}
	for _, o := range ds.Data {
		if o.Kind != DataObject || len(o.Keywords) != 0 {
			t.Fatalf("bad data object %+v", o)
		}
	}
	for _, f := range ds.Features {
		if f.Kind != FeatureObject || len(f.Keywords) == 0 {
			t.Fatalf("bad feature object %+v", f)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(UniformSpec(200))
	b := Generate(UniformSpec(200))
	if !reflect.DeepEqual(a.Data, b.Data) || !reflect.DeepEqual(a.Features, b.Features) {
		t.Error("same spec must generate identical datasets")
	}
}

func TestGenerateLocationsInBounds(t *testing.T) {
	for _, spec := range []Spec{UniformSpec(400), ClusteredSpec(400), FlickrSpec(400), TwitterSpec(400)} {
		ds := Generate(spec)
		bounds := ds.Bounds()
		for _, o := range ds.Objects() {
			if !bounds.Contains(o.Loc) {
				t.Fatalf("%s: object %v outside bounds %v", spec.Name, o, bounds)
			}
		}
	}
}

func TestKeywordCountRanges(t *testing.T) {
	tests := []struct {
		spec Spec
		mean float64
		tol  float64
	}{
		{UniformSpec(2000), 55, 3},   // 10..100 -> mean 55
		{FlickrSpec(2000), 7.9, 0.8}, // 4..12 -> mean ~8 (dedup may lower slightly)
		{TwitterSpec(2000), 9.8, 1},  // 5..15 -> mean ~10
	}
	for _, tt := range tests {
		ds := Generate(tt.spec)
		st := ds.ComputeStats()
		if st.MinLen < 1 {
			t.Errorf("%s: zero-keyword feature generated", tt.spec.Name)
		}
		if st.MaxLen > tt.spec.MaxKeywords {
			t.Errorf("%s: max len %d > spec %d", tt.spec.Name, st.MaxLen, tt.spec.MaxKeywords)
		}
		if math.Abs(st.MeanKeywords-tt.mean) > tt.tol {
			t.Errorf("%s: mean keywords %.2f, want ~%.1f", tt.spec.Name, st.MeanKeywords, tt.mean)
		}
	}
}

// The Zipfian datasets must be skewed: the most frequent word should occur
// far more often than the median word.
func TestZipfSkew(t *testing.T) {
	ds := Generate(FlickrSpec(4000))
	freq := map[uint32]int{}
	for _, f := range ds.Features {
		for _, kw := range f.Keywords {
			freq[kw]++
		}
	}
	max := 0
	for _, c := range freq {
		if c > max {
			max = c
		}
	}
	mean := 0
	for _, c := range freq {
		mean += c
	}
	meanF := float64(mean) / float64(len(freq))
	if float64(max) < 10*meanF {
		t.Errorf("no Zipf skew: max=%d mean=%.1f", max, meanF)
	}
}

// The clustered dataset must be spatially skewed: the densest of a 4x4
// tiling should hold far more than 1/16 of the objects.
func TestClusteredSkew(t *testing.T) {
	ds := Generate(ClusteredSpec(4000))
	counts := make(map[int]int)
	for _, o := range ds.Objects() {
		cx := int(o.Loc.X * 4)
		cy := int(o.Loc.Y * 4)
		if cx > 3 {
			cx = 3
		}
		if cy > 3 {
			cy = 3
		}
		counts[cy*4+cx]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max) < 2*float64(4000)/16 {
		t.Errorf("clustered data not skewed: max tile %d of %d", max, 4000)
	}
}

func TestRandomQueryKeywords(t *testing.T) {
	ds := Generate(UniformSpec(100))
	q := ds.RandomQueryKeywords(5, 9)
	if q.Len() != 5 {
		t.Errorf("query keywords = %d, want 5", q.Len())
	}
	q2 := ds.RandomQueryKeywords(5, 9)
	if !q.Equal(q2) {
		t.Error("same seed must give same query")
	}
	// Requesting more than the vocabulary clamps.
	small := Generate(Spec{Name: "tiny", NumObjects: 10, Spatial: Unit(),
		VocabSize: 3, MinKeywords: 1, MaxKeywords: 2, Seed: 1})
	if got := small.RandomQueryKeywords(10, 1).Len(); got != 3 {
		t.Errorf("clamped query = %d keywords, want 3", got)
	}
}

func TestFrequentQueryKeywords(t *testing.T) {
	ds := Generate(FlickrSpec(1000))
	q := ds.FrequentQueryKeywords(3)
	if q.Len() != 3 {
		t.Fatalf("got %d keywords", q.Len())
	}
	// Every selected keyword must actually be used by some feature.
	used := map[uint32]bool{}
	for _, f := range ds.Features {
		for _, kw := range f.Keywords {
			used[kw] = true
		}
	}
	for _, kw := range q {
		if !used[kw] {
			t.Errorf("frequent keyword %d unused in dataset", kw)
		}
	}
}

func TestComputeStats(t *testing.T) {
	ds := Generate(UniformSpec(500))
	st := ds.ComputeStats()
	if st.DataObjects != 250 || st.FeatureObjects != 250 {
		t.Errorf("stats counts: %+v", st)
	}
	if st.MinLen < 1 || st.MaxLen > 100 || st.MeanKeywords <= 0 {
		t.Errorf("stats keyword summary: %+v", st)
	}
	if st.String() == "" {
		t.Error("empty String()")
	}
}

func TestGeneratePanicsOnBadSpec(t *testing.T) {
	assertPanics := func(name string, spec Spec) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			Generate(spec)
		})
	}
	assertPanics("zero objects", Spec{NumObjects: 0, Spatial: Unit(), VocabSize: 10, MinKeywords: 1, MaxKeywords: 2})
	assertPanics("bad kw range", Spec{NumObjects: 10, Spatial: Unit(), VocabSize: 10, MinKeywords: 5, MaxKeywords: 2})
}

func TestHotspotDistBoundsAndSkew(t *testing.T) {
	d := HotspotDist(32, 3)
	r := rand.New(rand.NewSource(1))
	counts := make([]int, 16)
	for i := 0; i < 8000; i++ {
		p := d.Sample(r)
		if !d.Bounds().Contains(p) {
			t.Fatalf("sample %v out of bounds", p)
		}
		cx, cy := int(p.X*4), int(p.Y*4)
		if cx > 3 {
			cx = 3
		}
		if cy > 3 {
			cy = 3
		}
		counts[cy*4+cx]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 1000 { // uniform would give ~500 per tile
		t.Errorf("hotspot distribution not skewed: max tile %d", max)
	}
}
