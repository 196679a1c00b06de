package spq

import (
	"math"
	"math/rand"
	"testing"
)

// Metamorphic relations: each compares an engine's results with those of
// a transformed input on the same engine configuration, so neither side
// needs a reference engine. They cover every algorithm and storage.

// metamorphicRun answers c on e. On a distributed engine the job must
// ship: a fallback to local execution would leave the distributed leg
// testing the local path.
func metamorphicRun(t *testing.T, e *Engine, c invarianceCase) []Result {
	t.Helper()
	rep, err := e.QueryReport(c.q, WithAlgorithm(c.alg), WithCache(false))
	if err != nil {
		t.Fatalf("%v %v k=%d: %v", c.alg, c.q.Mode, c.q.K, err)
	}
	if e.Distributed() && rep.Counters[CounterExecFallbackLocal] != 0 {
		t.Errorf("%v %v k=%d: the job fell back to local execution", c.alg, c.q.Mode, c.q.K)
	}
	return rep.Results
}

// distMetamorphicConfig makes the configuration of one distributed engine
// of the relations: spq3 on two loopback workers of its own (a worker
// serves the engine that attached it last), with the slots of the other
// distributed legs.
func distMetamorphicConfig(t *testing.T) Config {
	return Config{Nodes: 4, BlockSize: 4 << 10, Seed: 9, MapSlots: 2, ReduceSlots: 1, Workers: distWorkers(t, 2, 2)}
}

// metamorphicEngine is sealedEngine, closed at the end of the test.
func metamorphicEngine(t *testing.T, cfg Config, dataObjs []DataObject, feats []Feature) *Engine {
	t.Helper()
	e := sealedEngine(t, cfg, dataObjs, feats)
	t.Cleanup(func() { e.Close() })
	return e
}

// TestDisjointFeaturesChangeNothing: a feature whose keywords share
// nothing with q.W scores 0 under the range and influence modes, so
// adding such features changes no result — even with one sitting on
// every result object, well within r, and whether they are sealed with
// the base data or appended into the delta. (The nearest mode is left
// out: there a nearer feature replaces the one that scored.)
func TestDisjointFeaturesChangeNothing(t *testing.T) {
	for _, st := range oracleStorages {
		cfg := Config{Storage: st.storage, Nodes: 4, BlockSize: 4 << 10, Seed: 9, CompactAfter: -1}
		t.Run(st.name, func(t *testing.T) { checkDisjointFeatures(t, func(*testing.T) Config { return cfg }, true) })
	}
}

// TestDistributedDisjointFeaturesChangeNothing is the relation's
// distributed leg, sealed only: a delta makes the job run locally.
func TestDistributedDisjointFeaturesChangeNothing(t *testing.T) {
	checkDisjointFeatures(t, distMetamorphicConfig, false)
}

// checkDisjointFeatures checks the relation on engines of configuration
// newCfg, one call per engine; withDelta also appends the added features
// into the delta of a third engine.
func checkDisjointFeatures(t *testing.T, newCfg func(*testing.T) Config, withDelta bool) {
	dataObjs, feats := tiedCorpus(43, 900)
	var cases []invarianceCase
	for _, c := range invarianceCases() {
		if c.q.Mode != ScoreNearest {
			cases = append(cases, c)
		}
	}
	// The queries ask for w1, w2 and w4 only; w0, w3 and w5 are in the
	// corpus vocabulary but disjoint from every q.W, as is "x".
	disjoint := [][]string{{"w0"}, {"w3", "w5"}, {"x"}, {"w0", "x", "w5"}}
	for _, c := range cases {
		for _, kw := range c.q.Keywords {
			for _, d := range disjoint {
				for _, w := range d {
					if w == kw {
						t.Fatalf("keyword %q of the added features is in q.W %v", w, c.q.Keywords)
					}
				}
			}
		}
	}

	base := metamorphicEngine(t, newCfg(t), dataObjs, feats)
	// One disjoint feature on every object any case returns.
	var extra []Feature
	seen := make(map[uint64]bool)
	for _, c := range cases {
		for _, r := range metamorphicRun(t, base, c) {
			if !seen[r.ID] {
				seen[r.ID] = true
				extra = append(extra, Feature{ID: uint64(1_000_000 + len(extra)), X: r.X, Y: r.Y, Keywords: disjoint[len(extra)%len(disjoint)]})
			}
		}
	}
	variants := []struct {
		name string
		e    *Engine
	}{{"sealed", metamorphicEngine(t, newCfg(t), dataObjs, append(append([]Feature(nil), feats...), extra...))}}
	if withDelta {
		delta := metamorphicEngine(t, newCfg(t), dataObjs, feats)
		if err := delta.AddFeature(extra...); err != nil {
			t.Fatal(err)
		}
		if delta.DeltaLen() != len(extra) {
			t.Fatalf("delta holds %d records, want the %d added features", delta.DeltaLen(), len(extra))
		}
		variants = append(variants, struct {
			name string
			e    *Engine
		}{"delta", delta})
	}
	for _, c := range cases {
		want := metamorphicRun(t, base, c)
		for _, v := range variants {
			if got := metamorphicRun(t, v.e, c); !resultsEqual(got, want) {
				t.Errorf("%s %v %v k=%d: adding %d keyword-disjoint features changed the results\nbefore: %+v\nafter:  %+v",
					v.name, c.alg, c.q.Mode, c.q.K, len(extra), want, got)
			}
		}
	}
}

// TestRemovingNonResultChangesNothing: an object's score depends on the
// features alone, so removing data objects outside the top-k changes no
// result. The removed ones are the near misses — ranks k+1 to k+3, where
// ties at τ sit — and five more drawn at random from outside the top-k.
func TestRemovingNonResultChangesNothing(t *testing.T) {
	for _, st := range oracleStorages {
		cfg := Config{Storage: st.storage, Nodes: 4, BlockSize: 4 << 10, Seed: 9}
		t.Run(st.name, func(t *testing.T) { checkRemovingNonResult(t, func(*testing.T) Config { return cfg }) })
	}
}

// TestDistributedRemovingNonResultChangesNothing is the relation's
// distributed leg.
func TestDistributedRemovingNonResultChangesNothing(t *testing.T) {
	checkRemovingNonResult(t, distMetamorphicConfig)
}

// checkRemovingNonResult checks the relation on engines of configuration
// newCfg, one call per engine.
func checkRemovingNonResult(t *testing.T, newCfg func(*testing.T) Config) {
	dataObjs, feats := tiedCorpus(47, 900)
	base := metamorphicEngine(t, newCfg(t), dataObjs, feats)
	rng := rand.New(rand.NewSource(47))
	for ci, c := range invarianceCases() {
		wider := c
		wider.q.K += 3
		ranked := metamorphicRun(t, base, wider)
		if len(ranked) <= c.q.K {
			t.Fatalf("case %d: only %d objects score", ci, len(ranked))
		}
		inTop := make(map[uint64]bool)
		for _, r := range ranked[:c.q.K] {
			inTop[r.ID] = true
		}
		drop := make(map[uint64]bool)
		for _, r := range ranked[c.q.K:] {
			drop[r.ID] = true
		}
		for len(drop) < len(ranked)-c.q.K+5 {
			if id := dataObjs[rng.Intn(len(dataObjs))].ID; !inTop[id] {
				drop[id] = true
			}
		}
		var kept []DataObject
		for _, o := range dataObjs {
			if !drop[o.ID] {
				kept = append(kept, o)
			}
		}
		removed := metamorphicEngine(t, newCfg(t), kept, feats)
		want := metamorphicRun(t, base, c)
		if got := metamorphicRun(t, removed, c); !resultsEqual(got, want) {
			t.Errorf("%v %v k=%d: removing %d non-result objects changed the results\nbefore: %+v\nafter:  %+v",
				c.alg, c.q.Mode, c.q.K, len(drop), want, got)
		}
		removed.Close()
	}
}

// TestPowerOfTwoScalingChangesNothing: multiplying every coordinate and
// the radius by 2^s is exact in binary floating point, and so is every
// quantity derived from them — grid cells, bucket offsets, squared
// distances against r², the influence decay d/r — or it does not change.
// Results keep their ids and scores bit for bit, and their locations
// scale by 2^s, for s ∈ {−3, 5}: every algorithm and mode. The corpus
// spans the unit square, so its bounds are not degenerate: padding
// degenerate bounds adds an unscaled 1.
func TestPowerOfTwoScalingChangesNothing(t *testing.T) {
	for _, st := range oracleStorages {
		cfg := Config{Storage: st.storage, Nodes: 4, BlockSize: 4 << 10, Seed: 9}
		t.Run(st.name, func(t *testing.T) { checkPowerOfTwoScaling(t, func(*testing.T) Config { return cfg }) })
	}
}

// TestDistributedPowerOfTwoScaling is the relation's distributed leg.
func TestDistributedPowerOfTwoScaling(t *testing.T) {
	checkPowerOfTwoScaling(t, distMetamorphicConfig)
}

// checkPowerOfTwoScaling checks the relation on engines of configuration
// newCfg, one call per engine.
func checkPowerOfTwoScaling(t *testing.T, newCfg func(*testing.T) Config) {
	dataObjs, feats := tiedCorpus(53, 900)
	base := metamorphicEngine(t, newCfg(t), dataObjs, feats)
	for _, s := range []int{-3, 5} {
		scaledData := make([]DataObject, len(dataObjs))
		for i, o := range dataObjs {
			o.X, o.Y = math.Ldexp(o.X, s), math.Ldexp(o.Y, s)
			scaledData[i] = o
		}
		scaledFeats := make([]Feature, len(feats))
		for i, f := range feats {
			f.X, f.Y = math.Ldexp(f.X, s), math.Ldexp(f.Y, s)
			scaledFeats[i] = f
		}
		scaled := metamorphicEngine(t, newCfg(t), scaledData, scaledFeats)
		for _, c := range invarianceCases() {
			want := metamorphicRun(t, base, c)
			sc := c
			sc.q.Radius = math.Ldexp(c.q.Radius, s)
			got := metamorphicRun(t, scaled, sc)
			same := len(got) == len(want) && len(want) > 0
			for i := 0; same && i < len(want); i++ {
				same = got[i].ID == want[i].ID &&
					math.Float64bits(got[i].Score) == math.Float64bits(want[i].Score) &&
					got[i].X == math.Ldexp(want[i].X, s) && got[i].Y == math.Ldexp(want[i].Y, s)
			}
			if !same {
				t.Errorf("s=%d %v %v k=%d: scaling by 2^s changed the results\nbefore: %+v\nafter:  %+v",
					s, c.alg, c.q.Mode, c.q.K, want, got)
			}
		}
	}
}
