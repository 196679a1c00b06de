package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the comparison and the smoke
// test read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readRuns loads a set of runs: one results-file object per line (what
// sweep.sh collects). It returns values[workload][metric], untraced runs
// only.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict judges set b against set a for one workload and metric by the
// rule of the choosing-metrics guide:
//
//   - unresolved: either set's interquartile spread (as a share of its
//     median) is wider than the bound, unless every run of one set beats
//     every run of the other, which is then improved or regressed;
//   - regressed: b's median is worse than a's by more than the bound;
//   - improved: b's median is better than a's by more than either set's
//     interquartile spread;
//   - unchanged otherwise.
//
// Two sets of runs of the same code agree when no row is regressed or
// unresolved.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) string {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	worse := (medB - medA) / medA // positive: b is worse
	lo, hi := percentile(b, 0), percentile(b, 1)
	loA, hiA := percentile(a, 0), percentile(a, 1)
	allBetter, allWorse := hi < loA, lo > hiA
	if !lowerIsBetter {
		worse = -worse
		allBetter, allWorse = lo > hiA, hi < loA
	}
	if (q3a-q1a)/medA > bound || (q3b-q1b)/medB > bound {
		switch {
		case allBetter:
			return "improved"
		case allWorse:
			return "regressed"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "regressed"
	case -worse > max((q3a-q1a)/medA, (q3b-q1b)/medB):
		return "improved"
	}
	return "unchanged"
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any row regressed.
func compareFiles(out io.Writer, specPath, pathA, pathB string) (regressed bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-13s %-24s %5s | %12s %7s | %12s %7s | %7s %6s  %s\n",
		"workload", "metric", "unit", "median a", "iqr a", "median b", "iqr b", "b vs a", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(xa) < 2 || len(xb) < 2 {
				fmt.Fprintf(out, "%-13s %-24s %5s | needs at least 2 runs on each side (have %d and %d)\n", w.Name, m.Name, m.Unit, len(xa), len(xb))
				continue
			}
			q1a, medA, q3a := quartiles(xa)
			q1b, medB, q3b := quartiles(xb)
			v := verdict(xa, xb, m.Better == "lower", m.Bound)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(out, "%-13s %-24s %5s | %12.4f %6.1f%% | %12.4f %6.1f%% | %+6.1f%% %5.1f%%  %s\n",
				w.Name, m.Name, m.Unit, medA, 100*(q3a-q1a)/medA, medB, 100*(q3b-q1b)/medB,
				100*(medB-medA)/medA, 100*m.Bound, v)
		}
	}
	return regressed, nil
}
