package main

// Per-layer metrics. No span can be placed inside the engine from here,
// so a layer's time is measured by calling its public functions on the
// workload's own inputs, under the workload's own load shape, and its
// self time by subtracting the layer below. Each figure names the
// end-to-end metric it should move in README.md.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"time"
)

// medianOf runs fn reps times and returns the median duration in ms.
func medianOf(reps int, fn func() error) (float64, error) {
	vals := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		vals = append(vals, ms(time.Since(t0)))
	}
	return median(vals), nil
}

const loadReps = 3

// layers splits the load, the checkpoint, the restart and the publish
// of load.stream. The load is a chain of four measurements, each adding
// one layer to the one before: tokenize → in-memory load → NoSync
// durable load → the traced cycles' own durable load. Every repetition
// starts from a collected heap, as a cycle does, so that the garbage of
// one probe is not marked at the next one's expense.
func (w *loadStream) layers(m metrics, traced recorder) error {
	in := w.r.in
	var tokens int
	var tokVals, memVals, insertVals, noSyncVals []float64
	for i := 0; i < loadReps; i++ {
		runtime.GC()
		t0 := time.Now()
		n, err := drainTokens(in.xml)
		if err != nil {
			return fmt.Errorf("tokenize: %w", err)
		}
		tokens = n
		tokVals = append(tokVals, ms(time.Since(t0)))
	}
	var sh *shredded
	var rows int
	for i := 0; i < loadReps; i++ {
		runtime.GC()
		mem, err := openMem(interval)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := mem.loadStream(in.xml); err != nil {
			return fmt.Errorf("in-memory load: %w", err)
		}
		memVals = append(memVals, ms(time.Since(t0)))
		if i == loadReps-1 {
			rows = mem.rows()
			if sh, err = mem.shredded(); err != nil {
				return err
			}
		}
	}
	for i := 0; i < loadReps; i++ {
		runtime.GC()
		d, err := reinsert(interval, sh)
		if err != nil {
			return err
		}
		insertVals = append(insertVals, ms(d))
	}
	sh = nil
	for i := 0; i < loadReps; i++ {
		runtime.GC()
		d, err := w.noSyncLoad()
		if err != nil {
			return fmt.Errorf("NoSync load: %w", err)
		}
		noSyncVals = append(noSyncVals, ms(d))
	}
	tokenize, memLoad, insert, noSync := median(tokVals), median(memVals), median(insertVals), median(noSyncVals)
	syncLoad := median(traced["load"])

	m["xmldom.tokenize_ms"] = tokenize
	m["xmldom.tokens"] = float64(tokens)
	m["shred.rows"] = float64(rows)
	m["shred.self_ms"] = memLoad - tokenize - insert
	m["sqldb.insert_ms"] = insert
	m["sqldb.wal_ms"] = noSync - memLoad
	m["sqldb.fsync_ms"] = syncLoad - noSync
	m["sqldb.checkpoint_ms"] = median(traced["checkpoint"])
	m["sqldb.snapshot_bytes"] = float64(w.snapshot)
	m["sqldb.recover_ms"] = median(traced["recover"])
	m["publish.reconstruct_ms"] = median(traced["reconstruct"])
	m["xmldom.serialize_ms"] = median(traced["serialize"])
	m["load_mib_s"] = in.mib / (syncLoad / 1000)
	m["reopen_ms"] = median(traced["reopen"])
	m["reconstruct_mib_s"] = in.mib / (median(traced["write_xml"]) / 1000)
	return nil
}

func (w *loadStream) noSyncLoad() (time.Duration, error) {
	dir, err := w.r.newDir()
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	d, err := openDurable(interval, dir, durableOpts{noSync: true})
	if err != nil {
		return 0, err
	}
	defer d.close()
	t0 := time.Now()
	err = d.loadStream(w.r.in.xml)
	return time.Since(t0), err
}

// layers walks each query class down the chain line → HTTP → handler →
// core → prepared execution, one caller asking the same class at every
// level back to back. With two processors the collector's mark phase
// takes one of them, so executing a class takes either its usual time or
// up to twice that, and medians of a few dozen calls flip between the
// two; the thin layers cost far less than that. Each level is therefore
// reported as its floor: the fastest call per class, summed over the six
// classes, and a layer's self time is its floor minus the floor below.
// Everything the floor does not explain — a processor held by the other
// caller, by the executor's own second worker or by the collector — is
// wait_ms: the traced window's median round minus the HTTP floor.
func (w *queryMix) layers(m metrics, traced recorder) error {
	in := w.r.in
	sqls := make([]string, len(in.queries))
	preps := make([]*prepared, len(in.queries))
	for i, q := range in.queries {
		var err error
		if sqls[i], err = w.d.translate(q); err != nil {
			return err
		}
		if preps[i], err = w.d.prepare(sqls[i]); err != nil {
			return err
		}
	}
	line, err := w.door.lineClient()
	if err != nil {
		return err
	}
	defer line.close()
	chain := []string{"server.line_ms", "server.http_ms", "server.handler_ms", "core.query_ms", "sqldb.exec_ms"}
	asks := []func(class int) error{
		w.checked(line.query), w.checked(w.https[0].query), w.checked(w.door.query), w.checked(w.d.query),
		func(class int) error {
			n, err := preps[class].run()
			if err == nil && n != len(in.expect[class]) {
				err = fmt.Errorf("q%d: prepared execution returned %d rows, the DOM gives %d", class+1, n, len(in.expect[class]))
			}
			return err
		},
	}
	// The allocation of one iteration is the same every time, so in a
	// fixed order the collector would run at the same levels each time;
	// a seeded shuffle spreads its cost over all of them alike.
	order := rand.New(rand.NewPCG(w.r.cfg.seed, 0xda942042e4dd58b5))
	samples := make([][][]float64, len(chain)) // level → class → ms
	for l := range samples {
		samples[l] = make([][]float64, len(in.queries))
	}
	iterations := 0
	for deadline := time.Now().Add(time.Duration(w.r.cfg.seconds * float64(time.Second))); time.Now().Before(deadline); iterations++ {
		var errs []error
		for class := range in.queries {
			for _, l := range order.Perm(len(chain)) {
				t0 := time.Now()
				errs = append(errs, asks[l](class))
				samples[l][class] = append(samples[l][class], ms(time.Since(t0)))
			}
		}
		w.r.count(errors.Join(errs...))
	}
	for l, name := range chain {
		for class := range in.queries {
			m[name] += slices.Min(samples[l][class])
		}
	}
	m["server.line_self_ms"] = m["server.line_ms"] - m["server.handler_ms"]
	m["server.http_self_ms"] = m["server.http_ms"] - m["server.handler_ms"]
	m["server.handler_self_ms"] = m["server.handler_ms"] - m["core.query_ms"]
	m["core.self_ms"] = m["core.query_ms"] - m["sqldb.exec_ms"]
	m["sqldb.exec_share"] = m["sqldb.exec_ms"] / m["server.http_ms"]
	m["wait_ms"] = median(traced["op"]) - m["server.http_ms"]
	m["read_p50_ms"] = median(traced[fmt.Sprintf("q%d", readClass+1)])

	// The small fixed costs, one caller, per class and summed per round.
	// core.self_ms contains the cached translation and the plan-cache hit.
	fresh, err := openMem(interval)
	if err != nil {
		return err
	}
	type micro struct{ parse, first, cached, miss, hit, examined, result float64 }
	var sum micro
	per := make([]micro, len(in.queries))
	for i, q := range in.queries {
		p := &per[i]
		if p.first, err = medianOf(1, func() error { _, e := fresh.translate(q); return e }); err != nil {
			return err
		}
		if p.parse, err = medianOf(200, func() error { return parseXPath(q) }); err != nil {
			return err
		}
		if p.cached, err = medianOf(200, func() error { _, e := w.d.translate(q); return e }); err != nil {
			return err
		}
		if p.miss, err = medianOf(5, func() error { return w.d.planMiss(sqls[i]) }); err != nil {
			return err
		}
		if p.hit, err = medianOf(200, func() error { return w.d.planHit(sqls[i]) }); err != nil {
			return err
		}
		ex, res, err := w.d.examined(sqls[i])
		if err != nil {
			return err
		}
		p.examined, p.result = float64(ex), float64(res)
		sum.parse += p.parse
		sum.first += p.first
		sum.cached += p.cached
		sum.miss += p.miss
		sum.hit += p.hit
		sum.examined += p.examined
		sum.result += p.result
	}
	m["xpath.parse_us"] = sum.parse * 1000
	m["translate.first_us"] = sum.first * 1000
	m["translate.cached_us"] = sum.cached * 1000
	m["sqldb.plan_miss_us"] = sum.miss * 1000
	m["sqldb.plan_hit_us"] = sum.hit * 1000
	m["sqldb.rows_examined_per_result"] = sum.examined / max(1, sum.result)

	log := w.r.log
	fmt.Fprintf(log, "per class (floor/median over %d interleaved iterations, one caller; ms unless noted):\n", iterations)
	fmt.Fprintf(log, "  %-5s %15s %15s %15s %15s %15s %9s %10s %11s %10s %8s %9s\n", "class",
		"line", "http", "handler", "core", "exec", "parse_us", "transl_us", "planmiss_us", "planhit_us", "results", "examined")
	for i := range in.queries {
		class := fmt.Sprintf("q%d", i+1)
		fmt.Fprintf(log, "  %-5s", class)
		for l := range chain {
			v := samples[l][i]
			fmt.Fprintf(log, " %7.3f/%7.3f", slices.Min(v), median(v))
		}
		p := per[i]
		fmt.Fprintf(log, " %9.1f %10.1f %11.1f %10.1f %8.0f %9.0f\n",
			p.parse*1000, p.cached*1000, p.miss*1000, p.hit*1000, p.result, p.examined)
	}
	return nil
}

const insertReps = 24

// layers splits the durable insert the same way the load is split: in
// memory → NoSync → fsync on every commit. An insert's cost depends on
// its position (every following sibling's ordinal is rewritten), so the
// three stores are fresh loads of the same document given the same
// script, and a layer's time is the median of the differences between
// inserts at the same position. No reader runs beside them; what the
// reader costs the writer is wait_ms.
func (w *updateOrdered) layers(m metrics, traced recorder) error {
	in := w.r.in
	var parseVals []float64
	for _, f := range in.frags {
		t0 := time.Now()
		if err := parseFragment(f); err != nil {
			return err
		}
		parseVals = append(parseVals, ms(time.Since(t0)))
	}

	mem, err := openMem(dewey)
	if err != nil {
		return err
	}
	if err := mem.loadStream(in.xml); err != nil {
		return err
	}
	memVals, err := w.scriptedInserts(mem.insert)
	if err != nil {
		return fmt.Errorf("in-memory inserts: %w", err)
	}
	mem = nil
	var durVals [2][]float64 // NoSync, then the default
	for i, noSync := range []bool{true, false} {
		runtime.GC()
		dir, err := w.r.newDir()
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		d, err := openDurable(dewey, dir, durableOpts{noSync: noSync})
		if err != nil {
			return err
		}
		defer d.close()
		if err := d.loadStream(in.xml); err != nil {
			return err
		}
		if err := d.checkpoint(); err != nil {
			return err
		}
		if durVals[i], err = w.scriptedInserts(d.insert); err != nil {
			return fmt.Errorf("durable inserts (NoSync %v): %w", noSync, err)
		}
	}
	diff := func(a, b []float64) float64 {
		d := make([]float64, len(a))
		for i := range a {
			d[i] = a[i] - b[i]
		}
		return median(d)
	}

	m["xmldom.parse_fragment_us"] = median(parseVals) * 1000
	m["shred.insert_mem_ms"] = median(memVals)
	m["sqldb.commit_ms"] = diff(durVals[1], memVals)
	m["sqldb.commit_wal_ms"] = diff(durVals[0], memVals)
	m["sqldb.commit_fsync_ms"] = diff(durVals[1], durVals[0])
	m["wait_ms"] = median(traced["op"]) - median(durVals[1])
	return nil
}

// scriptedInserts times the first insertReps inserts of the script.
func (w *updateOrdered) scriptedInserts(insert func(int64, int, []byte) error) ([]float64, error) {
	plan := newInsertPlan(w.r.in)
	vals := make([]float64, insertReps)
	for i := range vals {
		t0 := time.Now()
		if err := plan.insertInto(insert); err != nil {
			return nil, err
		}
		vals[i] = ms(time.Since(t0))
	}
	return vals, nil
}
