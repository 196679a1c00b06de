package spq

import (
	"math/rand"
	"testing"
)

// Metamorphic relations: each compares an engine's results with those of
// a transformed input on the same engine configuration, so neither side
// needs a reference engine. They cover every algorithm and storage,
// planned and unplanned.

// metamorphicRun answers c on e, planned or not.
func metamorphicRun(t *testing.T, e *Engine, c invarianceCase, planned bool) []Result {
	t.Helper()
	opts := []QueryOption{WithAlgorithm(c.alg), WithCache(false)}
	if planned {
		opts = append(opts, WithAutoPlan())
	}
	got, err := e.Query(c.q, opts...)
	if err != nil {
		t.Fatalf("%v %v k=%d planned=%v: %v", c.alg, c.q.Mode, c.q.K, planned, err)
	}
	return got
}

// TestDisjointFeaturesChangeNothing: a feature whose keywords share
// nothing with q.W scores 0 under the range and influence modes, so
// adding such features changes no result — even with one sitting on
// every result object, well within r, and whether they are sealed with
// the base data or appended into the delta. (The nearest mode is left
// out: there a nearer feature replaces the one that scored.)
func TestDisjointFeaturesChangeNothing(t *testing.T) {
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

	for _, st := range oracleStorages {
		t.Run(st.name, func(t *testing.T) {
			cfg := Config{Storage: st.storage, Nodes: 4, BlockSize: 4 << 10, Seed: 9, CompactAfter: -1}
			base := sealedEngine(t, cfg, dataObjs, feats)
			// One disjoint feature on every object any case returns.
			var extra []Feature
			seen := make(map[uint64]bool)
			for _, c := range cases {
				for _, r := range metamorphicRun(t, base, c, false) {
					if !seen[r.ID] {
						seen[r.ID] = true
						extra = append(extra, Feature{ID: uint64(1_000_000 + len(extra)), X: r.X, Y: r.Y, Keywords: disjoint[len(extra)%len(disjoint)]})
					}
				}
			}
			sealed := sealedEngine(t, cfg, dataObjs, append(append([]Feature(nil), feats...), extra...))
			delta := sealedEngine(t, cfg, dataObjs, feats)
			if err := delta.AddFeature(extra...); err != nil {
				t.Fatal(err)
			}
			if delta.DeltaLen() != len(extra) {
				t.Fatalf("delta holds %d records, want the %d added features", delta.DeltaLen(), len(extra))
			}
			for _, planned := range []bool{false, true} {
				for _, c := range cases {
					want := metamorphicRun(t, base, c, planned)
					for _, v := range []struct {
						name string
						e    *Engine
					}{{"sealed", sealed}, {"delta", delta}} {
						if got := metamorphicRun(t, v.e, c, planned); !resultsEqual(got, want) {
							t.Errorf("%s planned=%v %v %v k=%d: adding %d keyword-disjoint features changed the results\nbefore: %+v\nafter:  %+v",
								v.name, planned, c.alg, c.q.Mode, c.q.K, len(extra), want, got)
						}
					}
				}
			}
		})
	}
}

// TestRemovingNonResultChangesNothing: an object's score depends on the
// features alone, so removing data objects outside the top-k changes no
// result. The removed ones are the near misses — ranks k+1 to k+3, where
// ties at τ sit — and five more drawn at random from outside the top-k.
func TestRemovingNonResultChangesNothing(t *testing.T) {
	dataObjs, feats := tiedCorpus(47, 900)
	for _, st := range oracleStorages {
		t.Run(st.name, func(t *testing.T) {
			cfg := Config{Storage: st.storage, Nodes: 4, BlockSize: 4 << 10, Seed: 9}
			base := sealedEngine(t, cfg, dataObjs, feats)
			rng := rand.New(rand.NewSource(47))
			for ci, c := range invarianceCases() {
				wider := c
				wider.q.K += 3
				ranked := metamorphicRun(t, base, wider, false)
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
				removed := sealedEngine(t, cfg, kept, feats)
				for _, planned := range []bool{false, true} {
					want := metamorphicRun(t, base, c, planned)
					if got := metamorphicRun(t, removed, c, planned); !resultsEqual(got, want) {
						t.Errorf("planned=%v %v %v k=%d: removing %d non-result objects changed the results\nbefore: %+v\nafter:  %+v",
							planned, c.alg, c.q.Mode, c.q.K, len(drop), want, got)
					}
				}
			}
		})
	}
}
