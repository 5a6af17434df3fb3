package sqldb_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/shred"
	"repro/internal/sqldb"
	"repro/internal/xmlgen"
)

// BenchmarkPageDecode measures a buffer-pool fault's work on one full
// 512-row accel page of a factor-0.1 Interval store, from the checked
// image to a frame: the structural pass that validates every slot and
// records where it starts, decoding no row. It fails above four
// allocations per fault. The all-rows case then faults the page and
// reads every row into one scratch row, as a full scan does, and fails
// above eight allocations per page.
func BenchmarkPageDecode(b *testing.B) {
	db, err := loadAuction(shred.NewInterval(false), 0.1)
	if err != nil {
		b.Fatal(err)
	}
	payload := sqldb.PagePayload(db, "accel", 1)
	fault := func() sqldb.FaultedPage {
		p, err := sqldb.FaultPage(payload)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	readAll := func() {
		p, n := fault(), 0
		var scratch []sqldb.Value
		for i := range 512 {
			if p.Row(i, &scratch) != nil {
				n++
			}
		}
		if n != 512 {
			b.Fatalf("read %d rows, want 512", n)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { fault() }); allocs > 4 {
		b.Fatalf("%.0f allocations per page fault, want <= 4", allocs)
	}
	if allocs := testing.AllocsPerRun(10, readAll); allocs > 8 {
		b.Fatalf("%.0f allocations to fault a page and read every row, want <= 8", allocs)
	}
	b.Run("fault", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for b.Loop() {
			fault()
		}
	})
	b.Run("all-rows", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for b.Loop() {
			readAll()
		}
	})
}

// reopenAllocsCeiling bounds BenchmarkReopen's allocations per reopen
// of a factor-0.1 Interval store. It read 19,819 while the index
// rebuild decoded every row into its frame, one allocation a row, 4,460
// with the rows decoded into one scratch row, 3,581 once a rebuilt
// B-tree node's key prefix and suffix share one array, and 2,099 once
// its offsets and rowids share it too, one allocation per node; the
// ceiling is that plus about 12 %.
const reopenAllocsCeiling = 2350

// BenchmarkReopen measures opening a checkpointed durable factor-0.1
// Interval store, an empty WAL: restoring the snapshot and rebuilding
// every index from one scan of the pages. It fails above
// reopenAllocsCeiling allocations per reopen, which holds the rebuild
// to decoding each row into scratch.
func BenchmarkReopen(b *testing.B) {
	fs := sqldb.NewMemVFS()
	d, err := sqldb.OpenDurable(fs, sqldb.DurableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	s := shred.NewInterval(false)
	if err := s.Setup(d.DB()); err != nil {
		b.Fatal(err)
	}
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.1, Seed: 1})
	if err := s.Insert(context.Background(), d.DB(), 0, 0, doc.Tokens()); err != nil {
		b.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	reopen := func() {
		d, err := sqldb.OpenDurable(fs, sqldb.DurableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(5, reopen); allocs > reopenAllocsCeiling {
		b.Fatalf("%.0f allocations per reopen, want <= %d", allocs, reopenAllocsCeiling)
	}
	b.ReportAllocs()
	for b.Loop() {
		reopen()
	}
}

// FuzzPagePayload holds the fault-time check to the row decoder: a
// payload the check accepts decodes in every slot, and the materialized
// frame encodes back to the payload byte for byte (the slots past the
// payload's last one encode as tombstones, one zero byte each). The
// corpus starts from a real accel page and a truncated copy of it.
func FuzzPagePayload(f *testing.F) {
	db, err := loadAuction(shred.NewInterval(false), 0.01)
	if err != nil {
		f.Fatal(err)
	}
	page := sqldb.PagePayload(db, "accel", 0)
	f.Add(page)
	f.Add(page[:len(page)/2])
	f.Fuzz(func(t *testing.T, payload []byte) {
		p, err := sqldb.FaultPage(payload)
		if err != nil {
			return
		}
		var scratch []sqldb.Value
		for i := range 512 {
			p.Row(i, &scratch)
		}
		enc := p.Encode()
		if len(enc) < len(payload) || !bytes.Equal(enc[:len(payload)], payload) {
			t.Fatalf("accepted payload does not round-trip:\n got %x\nwant %x", enc, payload)
		}
		if tail := enc[len(payload):]; len(bytes.Trim(tail, "\x00")) != 0 {
			t.Fatalf("slots past the payload encode as %x, want tombstones", tail)
		}
	})
}
