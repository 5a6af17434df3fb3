// Command xrdb stores an XML document in the embedded relational
// database under a chosen mapping scheme and retrieves from it: run
// XPath queries (optionally showing the generated SQL and plan), publish
// the document or result sets back as XML, and inspect storage
// statistics.
//
// Usage:
//
//	xrdb -in doc.xml [-scheme interval] [-dtd doc.dtd] <action>
//	    the document is streamed from the file and loaded as one
//	    transaction: never held whole in memory (under -buffer-pool),
//	    and in durable mode crash-atomic
//	xrdb -data dir [-in doc.xml] [-scheme interval] [-dtd doc.dtd] <action>
//	    durable mode, any scheme: a write-ahead logged, crash-recovering
//	    store in dir, which is also how a store is saved and reopened
//	    (-checkpoint forces a snapshot + log rotation before exit;
//	    concurrent commits share one fsync; an inline store reopens
//	    under the DTD it stored)
//
// Actions (pick one):
//
//	-query '/site//item/name'   run an XPath query, print id/value rows
//	-timeout 500ms              with -query: cancel execution at the deadline
//	-sql                        with -query: also print the generated SQL
//	-explain                    with -query: also print the physical plan
//	-analyze                    with -query: execute under EXPLAIN ANALYZE and
//	                            print the plan annotated with actual rows/time
//	-publish                    reconstruct and print the whole document
//	-results                    with -query: publish matches as XML
//	-stats                      print storage, cache, snapshot, query-metrics
//	                            and phase-timing statistics (after any -query run)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/publish"
)

func main() {
	var (
		in        = flag.String("in", "", "input XML document, streamed from the file as one transaction")
		dataDir   = flag.String("data", "", "durable data directory (WAL + checkpoints, crash recovery; any scheme): the saved store, reopened on the next run")
		ckpt      = flag.Bool("checkpoint", false, "with -data: force a checkpoint before exit")
		scheme    = flag.String("scheme", "interval", "mapping scheme: edge|binary|universal|interval|dewey|inline")
		dtdFile   = flag.String("dtd", "", "DTD file (required for -scheme inline, except to reopen a -data directory)")
		valueIdx  = flag.Bool("value-index", false, "create content-value indexes")
		memBudget = flag.Int64("mem-budget", 0, "engine memory budget in bytes for tracked query memory (joins, sorts, aggregates); queries that exceed it abort (0 = unlimited)")
		queryMem  = flag.Int64("query-mem-limit", 0, "per-query tracked-memory limit in bytes (0 = unlimited)")
		maxConc   = flag.Int("max-concurrent", 0, "admission control: max queries executing at once (0 = unlimited)")
		maxQueue  = flag.Int("max-queue", 0, "with -max-concurrent: max queries waiting for admission before rejection")
		bufPool   = flag.Int("buffer-pool", 0, "cap resident 512-row heap pages; full pages beyond the cap spill to disk and page back in on demand (0 = unbounded, all in memory)")
		query     = flag.String("query", "", "XPath query to run")
		timeout   = flag.Duration("timeout", 0, "per-operation deadline (e.g. 500ms) for loads and queries; 0 = no limit")
		showSQL   = flag.Bool("sql", false, "print the generated SQL")
		explain   = flag.Bool("explain", false, "print the physical plan")
		analyze   = flag.Bool("analyze", false, "execute under EXPLAIN ANALYZE and print actual rows/time per operator")
		pub       = flag.Bool("publish", false, "reconstruct and print the document")
		results   = flag.Bool("results", false, "publish query matches as XML")
		stats     = flag.Bool("stats", false, "print storage statistics")
	)
	flag.Parse()

	// opCtx builds one operation's context: each load or query gets the
	// full -timeout budget.
	opCtx := func() (context.Context, context.CancelFunc) {
		if *timeout > 0 {
			return context.WithTimeout(context.Background(), *timeout)
		}
		return context.Background(), func() {}
	}

	opts := core.Options{
		WithValueIndex: *valueIdx, MemoryBudget: *memBudget, QueryMemoryLimit: *queryMem,
		MaxConcurrentQueries: *maxConc, MaxQueuedQueries: *maxQueue,
		BufferPoolPages: *bufPool,
	}
	if *dtdFile != "" {
		dtdSrc, err := os.ReadFile(*dtdFile)
		if err != nil {
			fail("%v", err)
		}
		opts.DTD = string(dtdSrc)
	}
	// Durable mode opens or crash-recovers the data directory; a
	// document given with -in is loaded only into an empty store,
	// streamed from the file as one crash-atomic transaction.
	var st *core.Store
	var ds *core.DurableStore
	var err error
	switch {
	case *dataDir != "":
		if ds, err = core.OpenDurable(core.SchemeKind(*scheme), *dataDir, opts); err != nil {
			fail("opening data directory %s: %v", *dataDir, err)
		}
		defer ds.Close()
		st = ds.Store
	case *in != "":
		if st, err = core.OpenWith(core.SchemeKind(*scheme), opts); err != nil {
			fail("%v", err)
		}
	default:
		fail("missing -in document (or -data directory)")
	}
	if *in != "" && !st.Loaded() {
		f, ferr := os.Open(*in)
		if ferr != nil {
			fail("%v", ferr)
		}
		ctx, cancel := opCtx()
		err = st.LoadXMLStream(ctx, f)
		cancel()
		f.Close()
		if err != nil {
			fail("loading %s: %v", *in, err)
		}
		if ds != nil {
			fmt.Fprintf(os.Stderr, "xrdb: %s loaded durably into %s (wal %d bytes)\n",
				*in, *dataDir, ds.Durable().WALSize())
		}
	}
	if ds != nil {
		if !st.Loaded() {
			fail("data directory %s is empty: pass -in to load a document", *dataDir)
		}
		if *ckpt {
			if err := ds.Checkpoint(); err != nil {
				fail("checkpoint: %v", err)
			}
			fmt.Fprintf(os.Stderr, "xrdb: checkpointed %s (wal now %d bytes)\n", *dataDir, ds.Durable().WALSize())
		}
	}

	did := false
	if *query != "" {
		did = true
		sql, err := st.Translate(*query)
		if err != nil {
			fail("translating: %v", err)
		}
		if *showSQL {
			fmt.Println("-- SQL:")
			fmt.Println(sql)
		}
		if *explain {
			plan, err := st.DB().Explain(sql)
			if err != nil {
				fail("explain: %v", err)
			}
			fmt.Println("-- plan:")
			fmt.Print(plan)
		}
		if *analyze {
			plan, err := st.ExplainAnalyze(*query)
			if err != nil {
				fail("explain analyze: %v", err)
			}
			fmt.Println("-- plan (analyzed):")
			fmt.Print(plan)
		}
		if *results {
			if err := publish.ResultSet(os.Stdout, st.DB(), st.Scheme(), *query); err != nil {
				fail("publishing results: %v", err)
			}
			fmt.Println()
		} else {
			ctx, cancel := opCtx()
			defer cancel()
			res, err := st.QueryContext(ctx, *query)
			if err != nil {
				fail("querying: %v", err)
			}
			for _, m := range res.Matches {
				if m.HasValue {
					fmt.Printf("%d\t%s\n", m.ID, m.Value)
				} else {
					fmt.Printf("%d\n", m.ID)
				}
			}
			fmt.Printf("-- %d match(es)\n", len(res.Matches))
		}
	}
	if *pub {
		did = true
		if err := st.WriteXML(os.Stdout); err != nil {
			fail("publishing: %v", err)
		}
		fmt.Println()
	}
	if *stats {
		did = true
		printStats(st, ds)
	}
	if !did {
		fail("nothing to do: pass -query, -publish or -stats")
	}
}

// printStats renders storage, cache, query-metrics and phase-timing
// statistics (plus durability health when the store is durable). It
// runs after any -query so the metrics reflect the run.
func printStats(st *core.Store, ds *core.DurableStore) {
	fmt.Printf("scheme=%s\n", st.Kind())
	dbStats := st.DB().Stats()
	for _, ts := range dbStats.Tables {
		fmt.Printf("  %-24s %8d rows  %10d bytes  %d indexes\n", ts.Name, ts.Rows, ts.Bytes, ts.Indexes)
	}
	s := st.Stats()
	fmt.Printf("  total: %d tables, %d rows, %d bytes\n", s.Tables, s.Rows, s.Bytes)
	plans := st.DB().PlanCacheStats()
	fmt.Printf("  schema epoch: %d\n", dbStats.SchemaEpoch)
	fmt.Printf("  plan cache: %d/%d entries  %d hits  %d misses  %d evictions  %d invalidations\n",
		plans.Entries, plans.Capacity, plans.Hits, plans.Misses, plans.Evictions, plans.Invalidations)

	sn := dbStats.Snapshots
	fmt.Printf("snapshots:\n")
	fmt.Printf("  acquired: %d  pinned: %d (oldest %s)  publishes: %d\n",
		sn.Acquired, sn.Pinned, sn.OldestAge.Round(time.Microsecond), sn.Publishes)
	fmt.Printf("  writer waits: %d in %s  publish-order waits: %d  versions reclaimed: %d\n",
		sn.PublishWaits, sn.PublishWaitTime.Round(time.Microsecond), sn.PublishOrderWaits, sn.VersionsReclaimed)

	bp := dbStats.BufferPool
	fmt.Printf("buffer pool:\n")
	if bp.Cap == 0 {
		fmt.Printf("  cap: unbounded  spilled: %d (%d bytes on disk)\n", bp.Spilled, bp.SpillBytes)
	} else {
		fmt.Printf("  cap: %d pages  resident: %d  spilled: %d (%d bytes on disk)\n",
			bp.Cap, bp.Resident, bp.Spilled, bp.SpillBytes)
		fmt.Printf("  hits: %d  misses: %d  evictions: %d  writebacks: %d  pinned: %d (high water %d)\n",
			bp.Hits, bp.Misses, bp.Evictions, bp.Writebacks, bp.Pinned, bp.PinnedHighWater)
	}
	if bp.ReadErrors > 0 || bp.SpillErrors > 0 {
		fmt.Printf("  read errors: %d  spill errors: %d\n", bp.ReadErrors, bp.SpillErrors)
	}

	g := dbStats.Governor
	if g.MemoryBudget > 0 || g.QueryMemLimit > 0 || g.MaxConcurrent > 0 {
		fmt.Printf("governor:\n")
		if g.MemoryBudget > 0 || g.QueryMemLimit > 0 {
			fmt.Printf("  memory: %d/%d bytes in use (per-query limit %d)\n", g.MemoryUsed, g.MemoryBudget, g.QueryMemLimit)
		}
		if g.MaxConcurrent > 0 {
			fmt.Printf("  admission: %d slots, queue %d  admitted: %d  queued: %d  rejected: %d\n",
				g.MaxConcurrent, g.MaxQueue, g.Admitted, g.Queued, g.Rejected)
		}
	}
	if ds != nil {
		h := ds.Health()
		fmt.Printf("durability health: %s", h.State)
		if h.Cause != "" {
			fmt.Printf(" (since %s: %s)", h.Since.Format(time.RFC3339), h.Cause)
		}
		fmt.Printf("  degradations: %d  recoveries: %d\n", h.Degradations, h.Recoveries)
	}

	m := dbStats.Metrics
	fmt.Printf("query metrics:\n")
	fmt.Printf("  queries: %d (%d errors)  rows: %d  exec time: %s  plan compiles: %d in %s\n",
		m.Queries, m.QueryErrors, m.Rows, m.QueryTime, m.PlanCompiles, m.PlanTime)
	if m.Queries > 0 {
		fmt.Printf("  latency histogram:")
		for _, b := range m.Latency {
			if b.Count == 0 {
				continue
			}
			if b.Le == 0 {
				fmt.Printf("  >%v:%d", m.Latency[len(m.Latency)-2].Le, b.Count)
			} else {
				fmt.Printf("  <=%v:%d", b.Le, b.Count)
			}
		}
		fmt.Println()
	}
	for i, t := range m.Templates {
		if i >= 5 {
			fmt.Printf("  ... %d more templates\n", len(m.Templates)-5)
			break
		}
		fmt.Printf("  template %dx mean=%s max=%s  %s\n", t.Count, t.Mean(), t.Max, truncate(t.Template, 72))
	}
	if len(m.Operators) > 0 {
		fmt.Printf("  operator totals:\n")
		for _, op := range m.Operators {
			fmt.Printf("    %-20s opens=%-6d rows=%-8d nexts=%-8d build=%d\n",
				op.Kind, op.Opens, op.Rows, op.Nexts, op.BuildRows)
		}
	}
	for _, sq := range m.SlowQueries {
		fmt.Printf("  slow (> %s): %s  %d row(s)  %s\n", m.SlowThreshold, sq.Duration, sq.Rows, truncate(sq.SQL, 64))
	}

	ph := st.PhaseStats()
	fmt.Printf("phase timings (cumulative):\n")
	for _, p := range []struct {
		name string
		stat core.PhaseStat
	}{
		{"shred", ph.Shred}, {"translate", ph.Translate}, {"exec", ph.Exec}, {"publish", ph.Publish},
	} {
		if p.stat.Count == 0 {
			continue
		}
		fmt.Printf("  %-10s %4d span(s)  %s\n", p.name, p.stat.Count, p.stat.Total)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xrdb: "+format+"\n", args...)
	os.Exit(1)
}
