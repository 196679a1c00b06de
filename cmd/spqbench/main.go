// Command spqbench regenerates the paper's evaluation figures (Section 7)
// on the in-process simulated cluster. Each figure is printed as a text
// table with one row per swept x-value and one column (series) per
// algorithm, mirroring the plots of the paper.
//
// Usage:
//
//	spqbench -fig all                 # every figure (the default)
//	spqbench -fig 5a                  # one panel
//	spqbench -fig 8 -scale-unit 1000  # larger scalability sweep
//	spqbench -quick                   # endpoints of each sweep only
//	spqbench -json > figures.json     # machine-readable results
//	spqbench -quick -json -verify     # rows proven against a full scan
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"spq/internal/bench"
)

type options struct {
	fig, cpuProf      string
	jsonOut, counters bool
	cfg               bench.Config
}

func main() {
	var o options
	flag.StringVar(&o.fig, "fig", "all", "figure id (5a..5d, 6a..6d, 7a..7d, 8, 9a..9d, df, lb, sh) or 'all'")
	flag.IntVar(&o.cfg.SizeReal, "size-real", 0, "objects for FL/TW surrogates (default 150000)")
	flag.IntVar(&o.cfg.SizeSynthetic, "size-syn", 0, "objects for UN/CL (default 100000)")
	flag.IntVar(&o.cfg.ScaleUnit, "scale-unit", 0, "Figure 8 size step (default 400: sizes 25600..204800)")
	flag.IntVar(&o.cfg.MapSlots, "map-slots", 0, "map worker slots (default NumCPU)")
	flag.IntVar(&o.cfg.ReduceSlots, "reduce-slots", 0, "reduce worker slots (default NumCPU)")
	flag.BoolVar(&o.cfg.Quick, "quick", false, "run only the endpoints of each sweep")
	flag.IntVar(&o.cfg.Repeat, "repeat", 1, "run each measured cell N times and keep the fastest (use 3+ when comparing two runs)")
	flag.BoolVar(&o.cfg.Verify, "verify", false, "prove result identity of every measured cell against the full-scan reference (rows gain \"verified\": true)")
	flag.BoolVar(&o.counters, "counters", false, "also print features-examined counters per figure")
	flag.BoolVar(&o.jsonOut, "json", false, "emit results as a JSON array of rows (figure, series, x, millis, counters) instead of tables")
	flag.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the figure runs to this file")
	flag.Parse()

	// All the work happens in run so its defers — stopping and closing the
	// CPU profile above all — fire before os.Exit.
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "spqbench: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) (err error) {
	h := bench.New(o.cfg)
	ids := bench.FigureIDs()
	if o.fig != "all" {
		ids = []string{o.fig}
	}
	if o.cpuProf != "" {
		f, ferr := os.Create(o.cpuProf)
		if ferr != nil {
			return ferr
		}
		// Runs after StopCPUProfile has flushed the profile into f.
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	var figures []*bench.Figure
	for _, id := range ids {
		t0 := time.Now()
		figure, err := h.Run(id)
		if err != nil {
			return err
		}
		if o.jsonOut {
			figures = append(figures, figure)
			fmt.Fprintf(os.Stderr, "(figure %s took %.1fs)\n", id, time.Since(t0).Seconds())
			continue
		}
		figure.WriteTable(os.Stdout)
		if o.counters {
			figure.WriteCounters(os.Stdout)
		}
		fmt.Printf("(figure %s took %.1fs)\n\n", id, time.Since(t0).Seconds())
	}
	if o.jsonOut {
		if err := bench.WriteJSON(os.Stdout, figures); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "total: %.1fs\n", time.Since(start).Seconds())
		return nil
	}
	fmt.Printf("total: %.1fs\n", time.Since(start).Seconds())
	return nil
}
