package core

import (
	"testing"

	"repro/internal/sqldb"
	"repro/internal/xmlgen"
)

// insertCost is what one durable InsertXML spent.
type insertCost struct {
	wal      int64 // WAL bytes appended
	rows     int64 // rows added
	examined int64 // rows produced by the insert's scans and index probes
	scans    int64 // sequential scans opened
	fanout   int64 // children of the parent when the insert ran
}

// TestDeweyInsertCostsWhatItTouches pins the local-update property of
// the Dewey encoding on a durable store: inserting one fragment under
// /site/open_auctions logs the same WAL bytes at the first and the last
// position and at a tenfold document size, and no statement of the
// insert scans the table. The only read that grows is the listing of
// the parent's children that locates the position, so the rows the
// insert examines beyond that listing are a constant.
func TestDeweyInsertCostsWhatItTouches(t *testing.T) {
	const frag = `<open_auction id="touch"><initial>10.00</initial><current>10.00</current>` +
		`<itemref item="item0"/><seller person="person0"/><quantity>1</quantity><type>Regular</type></open_auction>`
	var runs []insertCost
	for _, factor := range []float64{0.05, 0.5} {
		ds, err := OpenDurableVFS(Dewey, sqldb.NewMemVFS(), Options{}, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.LoadDocument(xmlgen.Auction(xmlgen.Config{Factor: factor, Seed: 3})); err != nil {
			t.Fatal(err)
		}
		if err := ds.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		res, err := ds.Query(`/site/open_auctions`)
		if err != nil || len(res.Matches) != 1 {
			t.Fatalf("parent lookup: %v (%d matches)", err, len(res.Matches))
		}
		parent := res.Matches[0].ID
		for _, atEnd := range []bool{false, true} {
			fanout, err := ds.Count(`/site/open_auctions/*`)
			if err != nil {
				t.Fatal(err)
			}
			pos := 0
			if atEnd {
				pos = fanout
			}
			wal0, rows0, ops0 := ds.Durable().WALSize(), ds.DB().TotalRows(), ds.DB().Metrics().Operators
			if err := ds.InsertXML(parent, pos, []byte(frag)); err != nil {
				t.Fatalf("factor %v, position %d: %v", factor, pos, err)
			}
			c := insertCost{
				wal:    ds.Durable().WALSize() - wal0,
				rows:   int64(ds.DB().TotalRows() - rows0),
				fanout: int64(fanout),
			}
			c.examined, c.scans = opDelta(ops0, ds.DB().Metrics().Operators)
			t.Logf("factor %v, position %d of %d: %d WAL bytes, %d rows examined, %d scans",
				factor, pos, fanout, c.wal, c.examined, c.scans)
			runs = append(runs, c)
		}
		if n, err := ds.Count(`/site/open_auctions/open_auction[@id = "touch"]`); err != nil || n != 2 {
			t.Fatalf("factor %v: %d inserted subtrees found (%v), want 2", factor, n, err)
		}
		ds.Close()
	}

	first := runs[0]
	for _, c := range runs {
		// Only the varint width of the new node ids may differ: at most
		// one byte per added row.
		if d := c.wal - first.wal; c.rows != first.rows || d < -c.rows || d > c.rows {
			t.Errorf("WAL bytes per insert vary with position or document size: %d vs %d", c.wal, first.wal)
		}
		if c.scans != 0 {
			t.Errorf("the insert opened %d sequential scans", c.scans)
		}
		if c.examined-c.fanout != first.examined-first.fanout {
			t.Errorf("rows examined beyond the sibling listing vary: %d-%d vs %d-%d",
				c.examined, c.fanout, first.examined, first.fanout)
		}
	}
	if first.wal > 4<<10 {
		t.Errorf("one small insert logged %d WAL bytes", first.wal)
	}
}

// opDelta sums the rows the storage-reading operators produced between
// two registry snapshots, and counts sequential scans opened.
func opDelta(before, after []sqldb.OpTotalStats) (examined, scans int64) {
	prev := map[string]sqldb.OpTotalStats{}
	for _, o := range before {
		prev[o.Kind] = o
	}
	for _, o := range after {
		p := prev[o.Kind]
		switch o.Kind {
		case "SeqScan":
			scans += int64(o.Opens - p.Opens)
			examined += int64(o.Rows - p.Rows)
		case "IndexScan", "IndexMinMax", "IndexJoin":
			examined += int64(o.Rows - p.Rows)
		}
	}
	return examined, scans
}
