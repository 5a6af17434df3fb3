package core

import (
	"runtime"
	"testing"

	"repro/internal/xmlgen"
)

// f1RoundAllocCeiling bounds the bytes one round of the F1 mix may
// allocate over an XMark factor-0.1 Interval store. Measured
// at 0.39 MiB per round once index probes reuse one cursor per
// operator, joins test residuals on the probed table in place,
// projections carve rows from an arena and correlated subqueries are
// opened once per execution and rewound (1.16 MiB before; 19.5 MiB
// before joins carried only referenced columns); the ceiling is twice
// the measured figure.
const f1RoundAllocCeiling = 2 * 0.39 * (1 << 20)

// TestF1RoundAllocation guards against per-row allocation creeping back
// into the join operators.
func TestF1RoundAllocation(t *testing.T) {
	st, err := Open(Interval)
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
	round() // warm the plan cache
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
