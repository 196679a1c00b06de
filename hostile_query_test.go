package spq

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// Queries whose parameters arrive off the wire must be answered correctly
// within their deadline or rejected as invalid: no k or radius a client
// sends may crash the process, hang a query or change its results.
// TestInvalidQueryTaxonomy covers the grid size and reducer count, which
// are rejected above a bound.

func hostileEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(Config{Seed: 42})
	if err := e.LoadSynthetic("uniform", 2000); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestHugeKReturnsEveryScoredObject: k = 2^40 returns the same results as
// k = the object count, on every algorithm. A top-k
// list that reserved k slots up front would run the process out of
// memory, which no recover catches.
func TestHugeKReturnsEveryScoredObject(t *testing.T) {
	for _, st := range oracleStorages {
		e := hostileEngine(t)
		kws := e.FrequentKeywords(2)
		for _, alg := range Algorithms() {
			t.Run(st.name+"/"+alg.String(), func(t *testing.T) {
				// Reduce tasks reuse pooled top-k lists; two collections
				// empty the pool, so the huge k sizes fresh ones.
				runtime.GC()
				runtime.GC()
				got, err := e.Query(Query{K: 1 << 40, Radius: 0.05, Keywords: kws}, WithAlgorithm(alg))
				if err != nil {
					t.Fatal(err)
				}
				want, err := e.Query(Query{K: 2000, Radius: 0.05, Keywords: kws}, WithAlgorithm(alg))
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || len(want) >= 1000 {
					t.Fatalf("k = 2000 returned %d results, want some but not every data object", len(want))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("k = 2^40 returned %d results, k = 2000 returned %d; they differ", len(got), len(want))
				}
			})
		}
	}
}

// TestRadiusBeyondDataSpaceMatchesDiagonal is the radius relation at its
// far end: once r covers the data space's diagonal every feature is in
// range of every object, so any larger radius returns the diagonal's
// results, within the query's deadline. Unclamped, 1e20
// overflows the grid's ring count and duplicates no feature, and 1e9
// walks ~10^11 rows outside the grid per feature.
func TestRadiusBeyondDataSpaceMatchesDiagonal(t *testing.T) {
	e := hostileEngine(t)
	kws := e.FrequentKeywords(2)
	diag := math.Sqrt2 // the synthetic data lies in the unit square
	plans := []struct {
		name string
		opts []QueryOption
	}{
		{"default", nil},
		{"grid8", []QueryOption{WithGrid(8)}},
	}
	for _, alg := range Algorithms() {
		for _, p := range plans {
			t.Run(fmt.Sprintf("%v/%s", alg, p.name), func(t *testing.T) {
				opts := append([]QueryOption{WithAlgorithm(alg)}, p.opts...)
				want, err := e.Query(Query{K: 10, Radius: diag, Keywords: kws}, opts...)
				if err != nil {
					t.Fatal(err)
				}
				// The overflowing radii come first, so a regression fails
				// fast rather than running into the deadline on 1e9.
				for _, r := range []float64{1e20, math.MaxFloat64, 1e9} {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					got, err := e.QueryContext(ctx, Query{K: 10, Radius: r, Keywords: kws}, opts...)
					cancel()
					if err != nil {
						t.Fatalf("radius %g: %v", r, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("radius %g: results differ from radius %g\n got %v\nwant %v", r, diag, got, want)
					}
				}
			})
		}
	}
}
