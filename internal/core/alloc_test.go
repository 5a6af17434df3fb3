package core

import (
	"runtime"
	"testing"

	"repro/internal/xmlgen"
)

// f1RoundAllocCeiling bounds the bytes one round of the F1 mix may
// allocate over an XMark factor-0.1 Interval store at DOP 1. Measured
// at 1.67 MiB per round once joins test their residuals on a scratch
// row, subquery filters sit at the lowest join that binds them, and
// joins carry only referenced columns (19.5 MiB before); the ceiling is
// twice the measured figure.
const f1RoundAllocCeiling = 2 * 1.67 * (1 << 20)

// TestF1RoundAllocation guards against per-row allocation creeping back
// into the join operators.
func TestF1RoundAllocation(t *testing.T) {
	st, err := OpenWith(Interval, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LoadDocument(xmlgen.Auction(xmlgen.Config{Factor: 0.1, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	round := func() {
		for _, q := range f1Queries {
			if _, err := st.Query(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	round() // warm the translation and plan caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("F1 round allocated %.2f MiB", float64(got)/(1<<20))
	if float64(got) > f1RoundAllocCeiling {
		t.Errorf("F1 round allocated %.2f MiB, ceiling %.2f MiB", float64(got)/(1<<20), f1RoundAllocCeiling/(1<<20))
	}
}
