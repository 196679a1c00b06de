package bench

import (
	"testing"

	"spq/internal/core"
)

// BenchmarkPlannedClusteredQuery measures one fig-9c-style point (CL
// dataset, grid 15, 3 keywords, r=10% of cell) end to end on the planned
// columnar path. It is the profiling anchor for the storage read path.
func BenchmarkPlannedClusteredQuery(b *testing.B) {
	h := New(Config{MapSlots: 4, ReduceSlots: 4})
	ds := h.dataset("CL", h.cfg.SizeSynthetic)
	q := h.defaultQuery(ds, defaultGridSyn, defaultKeywords, defaultRadiusPc, defaultK, 42)
	if _, err := h.runOne(ds, core.ESPQSco, q, defaultGridSyn); err != nil { // warm cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.runOne(ds, core.ESPQSco, q, defaultGridSyn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReferenceClusteredQuery is the same point on the unplanned
// full-scan reference the -verify oracle runs, for comparison.
func BenchmarkReferenceClusteredQuery(b *testing.B) {
	h := New(Config{MapSlots: 4, ReduceSlots: 4})
	ds := h.dataset("CL", h.cfg.SizeSynthetic)
	q := h.defaultQuery(ds, defaultGridSyn, defaultKeywords, defaultRadiusPc, defaultK, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.runReference(ds, core.ESPQSco, q, defaultGridSyn); err != nil {
			b.Fatal(err)
		}
	}
}
