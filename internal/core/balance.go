package core

import (
	"sort"

	"spq/internal/data"
	"spq/internal/grid"
	"spq/internal/mapreduce"
)

// Load balancing addresses the observation of Section 7.2.4: on skewed
// (clustered) data "it is hard to fairly assign the objects to Reducers,
// thus typically some Reducers are overburdened". When the number of
// reduce tasks is smaller than the number of cells, the default partition
// function assigns cells round-robin (cell % R), which lands neighboring
// hot cells on the same reducers. A caller that knows the input instead
// estimates each cell's reduce cost with the |Oi|·|Fi| model of Section
// 6.1 (CellWeights), assigns cells to reducers with the
// longest-processing-time-first greedy heuristic (BalanceCells), and
// hands the job that table (Options.CellReducer).

// CellWeights computes the per-cell reduce cost of the whole input: every
// data object grows its cell's |Oi|, every relevant feature grows the |Fi|
// of its cell and of every cell it is duplicated to (Lemma 1), and the
// final weight is (|Oi|+1)·(|Fi|+1), the Section 6.1 cost model smoothed
// so empty cells still get scheduled.
func CellWeights(src mapreduce.Source[data.Object], g *grid.Grid, q Query) ([]float64, error) {
	dataCnt := make([]float64, g.NumCells())
	featCnt := make([]float64, g.NumCells())
	splits, err := src.Splits()
	if err != nil {
		return nil, err
	}
	var scratch []grid.CellID
	for _, s := range splits {
		err := s.Each(func(o data.Object) bool {
			if o.Kind == data.DataObject {
				dataCnt[g.CellOf(o.Loc)]++
			} else if o.Keywords.Intersects(q.Keywords) {
				featCnt[g.CellOf(o.Loc)]++
				scratch = g.DuplicationTargets(o.Loc, q.Radius, scratch[:0])
				for _, c := range scratch {
					featCnt[c]++
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	weights := make([]float64, g.NumCells())
	for i := range weights {
		weights[i] = (dataCnt[i] + 1) * (featCnt[i] + 1)
	}
	return weights, nil
}

// BalanceCells assigns cells to numReducers reduce tasks with the LPT
// (longest processing time first) greedy heuristic over the estimated
// weights: cells are taken in decreasing weight order and each goes to the
// currently least-loaded reducer. The returned slice maps CellID to
// reducer index.
func BalanceCells(weights []float64, numReducers int) []int32 {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if weights[order[a]] != weights[order[b]] {
			return weights[order[a]] > weights[order[b]]
		}
		return order[a] < order[b]
	})
	load := make([]float64, numReducers)
	assign := make([]int32, len(weights))
	for _, cell := range order {
		best := 0
		for rdx := 1; rdx < numReducers; rdx++ {
			if load[rdx] < load[best] {
				best = rdx
			}
		}
		assign[cell] = int32(best)
		load[best] += weights[cell]
	}
	return assign
}

// MaxLoad returns the maximum per-reducer total weight under an
// assignment — the quantity LPT minimizes and the tests compare against
// the round-robin default.
func MaxLoad(weights []float64, assign []int32, numReducers int) float64 {
	load := make([]float64, numReducers)
	for cell, w := range weights {
		load[assign[cell]] += w
	}
	max := 0.0
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}

// RoundRobinAssign is the default cell % R assignment, exposed so tests
// and the harness can quantify the improvement of BalanceCells.
func RoundRobinAssign(numCells, numReducers int) []int32 {
	assign := make([]int32, numCells)
	for i := range assign {
		assign[i] = int32(i % numReducers)
	}
	return assign
}
