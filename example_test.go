package spq_test

import (
	"fmt"
	"log"

	"spq"
)

// Example reproduces the paper's worked example (Example 1): the best
// hotel with an Italian restaurant within 1.5 distance units.
func Example() {
	eng := spq.NewEngine(spq.Config{})
	eng.AddData(
		spq.DataObject{ID: 1, X: 4.6, Y: 4.8},
		spq.DataObject{ID: 4, X: 1.8, Y: 1.8},
		spq.DataObject{ID: 5, X: 1.9, Y: 9.0},
	)
	eng.AddFeature(
		spq.Feature{ID: 101, X: 2.8, Y: 1.2, Keywords: []string{"italian", "gourmet"}},
		spq.Feature{ID: 104, X: 3.8, Y: 5.5, Keywords: []string{"italian"}},
		spq.Feature{ID: 107, X: 3.0, Y: 8.1, Keywords: []string{"italian", "spaghetti"}},
	)
	results, err := eng.Query(
		spq.Query{K: 3, Radius: 1.5, Keywords: []string{"italian"}},
		spq.WithGrid(4), spq.WithBounds(0, 0, 10, 10),
	)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("p%d: %.2f\n", r.ID, r.Score)
	}
	// Output:
	// p1: 1.00
	// p4: 0.50
	// p5: 0.50
}

// ExampleEngine_QueryReport inspects the execution profile of a query:
// which algorithm ran, and how much work the early-termination mechanism
// saved.
func ExampleEngine_QueryReport() {
	eng := spq.NewEngine(spq.Config{})
	eng.AddData(spq.DataObject{ID: 1, X: 0.5, Y: 0.5})
	eng.AddFeature(
		spq.Feature{ID: 2, X: 0.52, Y: 0.5, Keywords: []string{"cafe"}},
		spq.Feature{ID: 3, X: 0.48, Y: 0.5, Keywords: []string{"cafe", "wifi"}},
	)
	rep, err := eng.QueryReport(
		spq.Query{K: 1, Radius: 0.1, Keywords: []string{"cafe"}},
		spq.WithAlgorithm(spq.ESPQSco), spq.WithGrid(2),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.Algorithm, len(rep.Results), rep.Results[0].Score)
	// Output: eSPQsco 1 1
}

// ExampleWithAlgorithm compares the three algorithms of the paper on the
// same query; they always return identical rankings.
func ExampleWithAlgorithm() {
	eng := spq.NewEngine(spq.Config{})
	eng.AddData(spq.DataObject{ID: 10, X: 1, Y: 1}, spq.DataObject{ID: 20, X: 9, Y: 9})
	eng.AddFeature(
		spq.Feature{ID: 1, X: 1.1, Y: 1, Keywords: []string{"park"}},
		spq.Feature{ID: 2, X: 9.1, Y: 9, Keywords: []string{"park", "lake", "trail"}},
	)
	for _, alg := range spq.Algorithms() {
		res, err := eng.Query(
			spq.Query{K: 1, Radius: 0.5, Keywords: []string{"park"}},
			spq.WithAlgorithm(alg), spq.WithGrid(4),
		)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v -> object %d (%.2f)\n", alg, res[0].ID, res[0].Score)
	}
	// Output:
	// pSPQ -> object 10 (1.00)
	// eSPQlen -> object 10 (1.00)
	// eSPQsco -> object 10 (1.00)
}

// ExampleQuery_mode shows the influence scoring extension: distance
// discounts the textual score, so a nearby partial match can beat a
// distant perfect one.
func ExampleQuery_mode() {
	eng := spq.NewEngine(spq.Config{})
	eng.AddData(spq.DataObject{ID: 1, X: 0, Y: 0})
	eng.AddFeature(
		spq.Feature{ID: 2, X: 0.95, Y: 0, Keywords: []string{"sushi"}},          // perfect, far
		spq.Feature{ID: 3, X: 0.05, Y: 0, Keywords: []string{"sushi", "ramen"}}, // half, near
	)
	q := spq.Query{K: 1, Radius: 1, Keywords: []string{"sushi"}, Mode: spq.ScoreInfluence}
	res, err := eng.Query(q, spq.WithAlgorithm(spq.PSPQ), spq.WithGrid(2))
	if err != nil {
		log.Fatal(err)
	}
	// Near half-match: 0.5·2^(−0.05) ≈ 0.483 beats far perfect match
	// 1.0·2^(−0.95) ≈ 0.518: the far perfect match still wins here.
	fmt.Printf("%.3f\n", res[0].Score)
	// Output: 0.518
}
