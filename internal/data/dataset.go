package data

import (
	"fmt"
	"sort"
)

// sortSlice is a tiny generic wrapper over sort.Slice.
func sortSlice[T any](s []T, less func(a, b T) bool) {
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
}

// Stats summarizes a dataset for reports and sanity tests.
type Stats struct {
	Name           string
	DataObjects    int
	FeatureObjects int
	VocabSize      int
	MeanKeywords   float64
	DistinctWords  int
	MinLen, MaxLen int
}

// ComputeStats scans the dataset.
func (d *Dataset) ComputeStats() Stats {
	s := Stats{
		Name:           d.Spec.Name,
		DataObjects:    len(d.Data),
		FeatureObjects: len(d.Features),
		VocabSize:      d.Spec.VocabSize,
		MinLen:         -1,
	}
	words := make(map[uint32]bool)
	total := 0
	for _, f := range d.Features {
		n := len(f.Keywords)
		total += n
		if s.MinLen < 0 || n < s.MinLen {
			s.MinLen = n
		}
		if n > s.MaxLen {
			s.MaxLen = n
		}
		for _, kw := range f.Keywords {
			words[kw] = true
		}
	}
	if len(d.Features) > 0 {
		s.MeanKeywords = float64(total) / float64(len(d.Features))
	}
	s.DistinctWords = len(words)
	return s
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("%s: |O|=%d |F|=%d vocab=%d meanKw=%.2f distinct=%d len=[%d,%d]",
		s.Name, s.DataObjects, s.FeatureObjects, s.VocabSize, s.MeanKeywords,
		s.DistinctWords, s.MinLen, s.MaxLen)
}
