// Command spqrun answers a single spatial preference query using keywords
// over one or more object files (see spqgen for the format), running the
// selected algorithm on the in-process simulated cluster.
//
// Usage:
//
//	spqrun -files un.txt -keywords w3,w17,w99 -k 10 -r 0.01 -alg espqsco -grid 15
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"spq"
)

func main() {
	var (
		files    = flag.String("files", "", "comma-separated object files (required)")
		keywords = flag.String("keywords", "", "comma-separated query keywords (required)")
		k        = flag.Int("k", 10, "number of results")
		r        = flag.Float64("r", 0.01, "query radius")
		algName  = flag.String("alg", "espqsco", "algorithm: pspq, espqlen, espqsco")
		gridN    = flag.Int("grid", 0, "grid size (n x n cells; 0 = the library default of 16, with or without -autoplan)")
		nodes    = flag.Int("nodes", 16, "simulated DFS nodes")
		slots    = flag.Int("slots", 8, "map/reduce worker slots")
		autoplan = flag.Bool("autoplan", false, "prune sealed cell files against the query before the job runs")
		verbose  = flag.Bool("v", false, "print job counters")
	)
	flag.Parse()
	if *files == "" || *keywords == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *gridN < 0 {
		fmt.Fprintf(os.Stderr, "spqrun: -grid %d invalid, must be non-negative\n", *gridN)
		os.Exit(2)
	}

	var alg spq.Algorithm
	switch strings.ToLower(*algName) {
	case "pspq":
		alg = spq.PSPQ
	case "espqlen":
		alg = spq.ESPQLen
	case "espqsco":
		alg = spq.ESPQSco
	default:
		fmt.Fprintf(os.Stderr, "spqrun: unknown algorithm %q\n", *algName)
		os.Exit(2)
	}

	eng := spq.NewEngine(spq.Config{Nodes: *nodes, MapSlots: *slots, ReduceSlots: *slots})
	for _, f := range strings.Split(*files, ",") {
		if err := eng.LoadFile(f); err != nil {
			fmt.Fprintf(os.Stderr, "spqrun: %v\n", err)
			os.Exit(1)
		}
	}
	nd, nf := eng.Len()
	fmt.Printf("loaded %d data objects, %d feature objects\n", nd, nf)

	opts := []spq.QueryOption{spq.WithAlgorithm(alg)}
	if *gridN > 0 {
		opts = append(opts, spq.WithGrid(*gridN))
	}
	if *autoplan {
		opts = append(opts, spq.WithAutoPlan())
	}
	rep, err := eng.QueryReport(spq.Query{
		K:        *k,
		Radius:   *r,
		Keywords: strings.Split(*keywords, ","),
	}, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spqrun: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%s: %d results in %.2f ms (map %.2f ms, reduce %.2f ms)\n",
		rep.Algorithm, len(rep.Results), rep.TotalMillis, rep.MapMillis, rep.ReduceMillis)
	if p := rep.Plan; p != nil {
		fmt.Printf("plan: read %d of %d records (pruned %d/%d data cells, %d/%d feature cells), grid %d, %d reducers\n",
			p.RecordsSelected, p.RecordsTotal, p.DataCellsPruned, p.DataCells,
			p.FeatureCellsPruned, p.FeatureCells, p.GridN, p.NumReducers)
	}
	for i, res := range rep.Results {
		fmt.Printf("%2d. object %-8d score %.4f  at (%.4f, %.4f)\n",
			i+1, res.ID, res.Score, res.X, res.Y)
	}
	if *verbose {
		fmt.Println("\ncounters:")
		names := make([]string, 0, len(rep.Counters))
		for n := range rep.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-35s %d\n", n, rep.Counters[n])
		}
	}
}
