package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"spq/internal/core"
	"spq/internal/grid"
	"spq/internal/mapreduce"
)

func quickHarness() *Harness {
	return New(Config{
		SizeReal:      4000,
		SizeSynthetic: 6000,
		ScaleUnit:     30,
		Quick:         true,
	})
}

func TestFigureIDsAllRunnable(t *testing.T) {
	h := quickHarness()
	for _, id := range FigureIDs() {
		fig, err := h.Run(id)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if fig.ID != id {
			t.Errorf("figure id = %s, want %s", fig.ID, id)
		}
		minSeries := 2
		if id == "sh" {
			minSeries = 1 // the shuffle sweep has one shuffle to measure
		}
		if len(fig.XVals) < 2 || len(fig.Series) < minSeries {
			t.Errorf("figure %s: %d x-values, %d series", id, len(fig.XVals), len(fig.Series))
		}
		for _, s := range fig.Series {
			for _, x := range fig.XVals {
				if _, ok := fig.Data[s][x]; !ok {
					t.Errorf("figure %s: missing cell %s/%s", id, s, x)
				}
			}
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	if _, err := quickHarness().Run("nope"); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestWriteTable(t *testing.T) {
	h := quickHarness()
	fig, err := h.Run("7b")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"7b", "keywords", "pSPQ", "eSPQlen", "eSPQsco"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	var cbuf bytes.Buffer
	fig.WriteCounters(&cbuf)
	if !strings.Contains(cbuf.String(), "features examined") {
		t.Errorf("counter output: %s", cbuf.String())
	}
}

// On every panel, early termination never examines more feature objects
// than pSPQ.
func TestEarlyTerminationNeverWorse(t *testing.T) {
	h := New(Config{SizeReal: 8000, SizeSynthetic: 8000, Quick: true})
	for _, id := range []string{"5a", "6b", "7c"} {
		fig, err := h.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range fig.XVals {
			p := fig.Data[core.PSPQ.String()][x]
			lenC := fig.Data[core.ESPQLen.String()][x]
			sco := fig.Data[core.ESPQSco.String()][x]
			if sco.FeaturesExamined > p.FeaturesExamined {
				t.Errorf("%s x=%s: eSPQsco examined %d > pSPQ %d",
					id, x, sco.FeaturesExamined, p.FeaturesExamined)
			}
			if lenC.FeaturesExamined > p.FeaturesExamined {
				t.Errorf("%s x=%s: eSPQlen examined %d > pSPQ %d",
					id, x, lenC.FeaturesExamined, p.FeaturesExamined)
			}
		}
	}
}

// The paper's headline claim needs cells dense in relevant features (the
// paper's cells hold thousands of objects). On a dense configuration,
// eSPQsco must examine only a small fraction of what pSPQ examines.
func TestEarlyTerminationLargeGainWhenDense(t *testing.T) {
	h := New(Config{})
	ds := h.dataset("UN", 30000)
	gridN := 8 // 64 cells over 15k features: ~2300 relevant features/query
	q := h.defaultQuery(ds, gridN, defaultKeywords, defaultRadiusPc, defaultK, 42)
	examined := map[core.Algorithm]int64{}
	for _, alg := range core.Algorithms() {
		cell, err := h.runOne(ds, alg, q, gridN)
		if err != nil {
			t.Fatal(err)
		}
		examined[alg] = cell.FeaturesExamined
	}
	p, sco := examined[core.PSPQ], examined[core.ESPQSco]
	if p == 0 {
		t.Fatal("pSPQ examined no features")
	}
	if sco*5 > p {
		t.Errorf("dense config: eSPQsco examined %d, pSPQ %d — want >5x reduction", sco, p)
	}
	if examined[core.ESPQLen] > p {
		t.Errorf("eSPQlen examined %d > pSPQ %d", examined[core.ESPQLen], p)
	}
}

// Figure 8 shape: pSPQ work grows roughly linearly with dataset size; the
// early-termination algorithms grow much slower in examined features.
func TestScalabilityShape(t *testing.T) {
	h := New(Config{ScaleUnit: 150, Quick: true}) // sizes 9,600 and 76,800
	fig, err := h.Run("8")
	if err != nil {
		t.Fatal(err)
	}
	small, large := fig.XVals[0], fig.XVals[len(fig.XVals)-1]
	pGrowth := ratio(fig.Data["pSPQ"][large].FeaturesExamined, fig.Data["pSPQ"][small].FeaturesExamined)
	scoGrowth := ratio(fig.Data["eSPQsco"][large].FeaturesExamined, fig.Data["eSPQsco"][small].FeaturesExamined)
	if pGrowth < 4 {
		t.Errorf("pSPQ examined features grew only %.1fx for 8x data", pGrowth)
	}
	if scoGrowth > pGrowth/2 {
		t.Errorf("eSPQsco grew %.1fx vs pSPQ %.1fx — expected much slower growth", scoGrowth, pGrowth)
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// The df experiment must match the analytical model closely on uniform
// features.
func TestDuplicationFactorFigure(t *testing.T) {
	h := New(Config{SizeSynthetic: 20000})
	fig, err := h.Run("df")
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range fig.XVals {
		m := fig.Data["measured"][x].Millis
		mod := fig.Data["model"][x].Millis
		// Boundary cells lower the measurement; allow 15%.
		if m > mod*1.01 || m < mod*0.85 {
			t.Errorf("df at %s%%: measured %.3f vs model %.3f", x, m, mod)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	h := New(Config{SizeReal: 2000, SizeSynthetic: 2000, ScaleUnit: 10, Quick: true})
	figs, err := h.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != len(FigureIDs()) {
		t.Errorf("RunAll returned %d figures, want %d", len(figs), len(FigureIDs()))
	}
}

func TestSortedCounterNames(t *testing.T) {
	names := SortedCounterNames(map[string]int64{"b": 1, "a": 2})
	if len(names) != 2 || names[0] != "a" {
		t.Errorf("names = %v", names)
	}
}

// TestLoadBalanceTimesReportedTable: every lb row times the very table
// whose imbalance it reports. The imbalance column must be the MaxLoad of
// that series' table, built from the full weights, and the timed job's work
// counters — which depend on which cells share a reduce task, since a task
// carries one top-k across its cells — must equal a job run on that table.
// Under Verify every lb and sh row is proven against the R-tree oracle.
func TestLoadBalanceTimesReportedTable(t *testing.T) {
	h := New(Config{SizeSynthetic: 6000, MapSlots: 2, ReduceSlots: 2, Verify: true})
	fig, err := h.Run("lb")
	if err != nil {
		t.Fatal(err)
	}
	ds := h.dataset("CL", h.cfg.SizeSynthetic)
	gridN := defaultGridSyn
	q := h.defaultQuery(ds, gridN, defaultKeywords, defaultRadiusPc, defaultK, 42)
	weights, err := core.CellWeights(mapreduce.NewMemorySource(h.objects(ds), 4), grid.New(ds.Bounds(), gridN, gridN), q)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	differ := false
	for _, x := range fig.XVals {
		reducers, _ := strconv.Atoi(x)
		work := map[string]int64{}
		for series, table := range map[string][]int32{
			"round-robin":  core.RoundRobinAssign(len(weights), reducers),
			"balanced-lpt": core.BalanceCells(weights, reducers),
		} {
			c := fig.Data[series][x]
			if !c.Verified {
				t.Errorf("lb %s/%s: row not verified", series, x)
			}
			if want := int64(core.MaxLoad(weights, table, reducers) / (total / float64(reducers)) * 1000); c.FeaturesExamined != want {
				t.Errorf("lb %s/%s: reported imbalance %d, the table's is %d", series, x, c.FeaturesExamined, want)
			}
			rep, err := core.Run(core.ESPQSco, mapreduce.NewMemorySource(h.objects(ds), 4), q, core.Options{
				Bounds: ds.Bounds(), GridN: gridN, NumReducers: reducers, CellReducer: table,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Counters[core.CounterScoreComputations]; c.ScoreComputations != got {
				t.Errorf("lb %s/%s: timed job made %d score computations, a job on the reported table %d", series, x, c.ScoreComputations, got)
			}
			work[series] = c.ScoreComputations
		}
		differ = differ || work["round-robin"] != work["balanced-lpt"]
	}
	if !differ {
		t.Error("round-robin and LPT tables did the same work at every point: the check cannot tell them apart")
	}

	sh, err := h.Run("sh")
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range sh.XVals {
		if !sh.Data["in-memory"][x].Verified {
			t.Errorf("sh %s: row not verified", x)
		}
	}
}
