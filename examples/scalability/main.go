// Scalability: Figure 8 of the paper in miniature.
//
// The example doubles the dataset size four times and times all three
// algorithms on each size. pSPQ grows linearly with the input while the
// early-termination algorithms stay nearly flat — the paper's headline
// scaling result.
//
//	go run ./examples/scalability
//	go run ./examples/scalability -base 500   # tiny run (CI smoke)
package main

import (
	"flag"
	"fmt"
	"log"

	"spq"
)

func main() {
	base := flag.Int("base", 8000, "smallest dataset size; the example doubles it three times")
	flag.Parse()
	fmt.Printf("%-8s  %10s  %10s  %10s\n", "objects", "pSPQ(ms)", "eSPQlen(ms)", "eSPQsco(ms)")
	for _, n := range []int{*base, *base * 2, *base * 4, *base * 8} {
		var times []float64
		for _, alg := range spq.Algorithms() {
			eng := spq.NewEngine(spq.Config{})
			if err := eng.LoadSynthetic("uniform", n); err != nil {
				log.Fatal(err)
			}
			kws := eng.FrequentKeywords(3)
			rep, err := eng.QueryReport(
				spq.Query{K: 10, Radius: 0.007, Keywords: kws},
				spq.WithAlgorithm(alg), spq.WithGrid(10),
			)
			if err != nil {
				log.Fatal(err)
			}
			times = append(times, rep.TotalMillis)
		}
		fmt.Printf("%-8d  %10.1f  %10.1f  %10.1f\n", n, times[0], times[1], times[2])
	}
}
