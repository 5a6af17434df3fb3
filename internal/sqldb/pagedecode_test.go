package sqldb_test

import (
	"testing"

	"repro/internal/shred"
	"repro/internal/sqldb"
	"repro/internal/xmlgen"
)

// BenchmarkPageDecode decodes one full 512-row accel page of a
// factor-0.1 Interval store, the unit of work behind every buffer-pool
// fault. A page decodes into one value arena and one text arena, so it
// fails above four allocations.
func BenchmarkPageDecode(b *testing.B) {
	db, err := shred.LoadDocument(shred.NewInterval(false), xmlgen.Auction(xmlgen.Config{Factor: 0.1, Seed: 1}))
	if err != nil {
		b.Fatal(err)
	}
	payload := sqldb.PagePayload(db, "accel", 1)
	decode := func() {
		if n, err := sqldb.DecodePagePayload(payload); err != nil || n != 512 {
			b.Fatalf("decoded %d rows: %v", n, err)
		}
	}
	if allocs := testing.AllocsPerRun(10, decode); allocs > 4 {
		b.Fatalf("%.0f allocations per page decode, want <= 4", allocs)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for b.Loop() {
		decode()
	}
}
