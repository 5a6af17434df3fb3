package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// config is one invocation. The command line sets the first four
// fields; the rest are fixed by main and shrunk by the smoke test.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	factor    float64 // XMark scaling factor of every workload's document
	poolPages int     // query.paged's BufferPoolPages
	setups    int     // set-ups per untraced run; setup_s is their median
	dataRoot  string  // data directories are created (and removed) under it
	outDir    string  // trace-<workload>.json goes here
}

// The six F1 query classes; one operation of the query workloads is one
// round of all six in this order. Q3's city is filled in from the
// generated document so the class always selects something.
var queryClasses = [6]string{
	"/site/categories/category/name",
	"//item/name",
	"/site/people/person[address/city='%s']/name",
	"//open_auction[initial > 200]/bidder/increase",
	"/site/open_auctions/open_auction/bidder[1]/increase",
	"//person[profile/@income > 60000]",
}

const (
	cityQuery   = "/site/people/person/address/city"
	parentQuery = "/site/open_auctions" // update.ordered inserts under it
	readClass   = 1                     // update.ordered's reader runs //item/name
	clients     = 2                     // closed-loop callers; the host has two cores
)

// inputs are everything derived from the seed: the document, the
// queries with the answers the DOM gives, and the insert script.
type inputs struct {
	xml     string
	mib     float64
	queries [6]string
	expect  [6][]int64

	frags    [][]byte
	parentID int64
	nOrig    int   // children of parentQuery in the generated document
	gaps     []int // seeded order in which the gaps before them are used
}

func makeInputs(factor float64, seed uint64) (*inputs, error) {
	in := &inputs{xml: auctionXML(factor, seed)}
	in.mib = float64(len(in.xml)) / (1 << 20)
	d, err := parseDOM(in.xml)
	if err != nil {
		return nil, err
	}
	// load.stream compares reconstructed bytes with the input itself.
	if d.serialize() != in.xml {
		return nil, fmt.Errorf("generated document does not round-trip through the DOM")
	}
	city, err := d.commonText(cityQuery)
	if err != nil {
		return nil, err
	}
	for i, q := range queryClasses {
		if i == 2 {
			q = fmt.Sprintf(q, city)
		}
		in.queries[i] = q
		if in.expect[i], err = d.eval(q); err != nil {
			return nil, err
		}
	}
	parent, err := d.eval(parentQuery)
	if err != nil {
		return nil, err
	}
	if len(parent) != 1 {
		return nil, fmt.Errorf("%s matches %d nodes, want 1", parentQuery, len(parent))
	}
	in.parentID = parent[0]
	if in.nOrig, err = d.childCount(parentQuery); err != nil {
		return nil, err
	}
	in.frags = auctionFragments(factor/4, seed+1)
	in.gaps = rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)).Perm(in.nOrig + 1)
	return in, nil
}

func (in *inputs) checkIDs(class int, got []int64) error {
	if !slices.Equal(got, in.expect[class]) {
		return fmt.Errorf("q%d %s: got %d matches, the DOM gives %d (or ids differ)",
			class+1, in.queries[class], len(got), len(in.expect[class]))
	}
	return nil
}

// run carries one invocation's shared state.
type run struct {
	cfg config
	in  *inputs
	log io.Writer

	attempted, failed atomic.Int64
	dirs              atomic.Int64
}

// count records one attempted operation or check; a non-nil error is a
// failure: an error, a refusal, a wrong answer or a lost write.
func (r *run) count(err error) {
	r.attempted.Add(1)
	if err != nil && r.failed.Add(1) <= 5 {
		fmt.Fprintf(r.log, "FAILED: %v\n", err)
	}
}

func (r *run) newDir() (string, error) {
	dir := filepath.Join(r.cfg.dataRoot, fmt.Sprintf("d%d", r.dirs.Add(1)))
	return dir, os.MkdirAll(dir, 0o755)
}

// setupInfo is what a set-up reports beside its duration.
type setupInfo struct {
	heapInuse uint64        // HeapInuse after a forced GC with the loaded store open
	untimed   time.Duration // spent taking that sample; not the system's set-up work
}

func sampleHeap() setupInfo {
	t0 := time.Now()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return setupInfo{heapInuse: m.HeapInuse, untimed: time.Since(t0)}
}

// clientFunc is one closed-loop caller's operation: it issues the next
// request only after the previous one has completed.
type clientFunc func(tr *tracer, rec recorder, it int)

type workload interface {
	// setup generates nothing (inputs exist) and does everything else
	// the system needs before the window: open, load, checkpoint, serve,
	// warm up.
	setup() (setupInfo, error)
	teardown() error
	clients() []clientFunc
	// counters are cumulative over the current set-up's lifetime.
	counters() (engineCounters, ioSnapshot)
	storedBytes() int64
	// finish runs the checks that need the window to be over.
	finish() error
	// layers measures the per-layer metrics after the traced window.
	layers(m metrics, traced recorder) error
}

func newWorkload(r *run) (workload, error) {
	switch r.cfg.workload {
	case "load.stream":
		return &loadStream{r: r}, nil
	case "query.hot":
		return &queryMix{r: r}, nil
	case "query.paged":
		return &queryMix{r: r, poolPages: r.cfg.poolPages}, nil
	case "update.ordered":
		return &updateOrdered{r: r}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", r.cfg.workload)
}

// window runs every client closed-loop for the given time and returns
// the merged samples with the wall time the window really took.
func window(fns []clientFunc, tr *tracer, seconds float64) (recorder, float64) {
	recs := make([]recorder, len(fns))
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c, fn := range fns {
		recs[c] = recorder{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; time.Now().Before(deadline); it++ {
				fn(tr, recs[c], it)
			}
		}()
	}
	wg.Wait()
	return merge(recs), time.Since(start).Seconds()
}

type metrics map[string]float64

// outcome is what one invocation reports.
type outcome struct {
	attempted, failed int64
	metrics           metrics
}

func execute(cfg config, log io.Writer) (*outcome, error) {
	in, err := makeInputs(cfg.factor, cfg.seed)
	if err != nil {
		return nil, err
	}
	return executeWith(cfg, in, log)
}

// executeWith runs one invocation on given inputs (the tests corrupt
// them to see the run fail).
func executeWith(cfg config, in *inputs, log io.Writer) (*outcome, error) {
	r := &run{cfg: cfg, in: in, log: log}
	w, err := newWorkload(r)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "input: XMark factor %g, seed %d, %d bytes (%.3f MiB)\n", cfg.factor, cfg.seed, len(in.xml), in.mib)

	base := sampleHeap().heapInuse
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var setupS []float64
	var info setupInfo
	for i := 0; i < setups; i++ {
		if i > 0 {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		if info, err = w.setup(); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, (time.Since(t0) - info.untimed).Seconds())
	}

	m := metrics{}
	runtime.GC()
	rec, elapsed := window(w.clients(), nil, cfg.seconds)
	if !cfg.trace {
		m["setup_s"] = median(setupS)
		m["op_p50_ms"] = median(rec["op"])
		m["ops_per_s"] = float64(len(rec["op"])) / elapsed
		m["heap_mib_per_xml_mib"] = (float64(info.heapInuse) - float64(base)) / (1 << 20) / in.mib
		m["stored_bytes_per_xml_byte"] = float64(w.storedBytes()) / float64(len(in.xml))
	} else {
		tr := newTracer()
		eng0, io0 := w.counters()
		traced, tracedElapsed := window(w.clients(), tr, cfg.seconds)
		eng1, io1 := w.counters()
		ops := float64(max(1, len(traced["op"])))
		eng, dev := eng1.sub(eng0), io1.sub(io0)

		m["op_samples"] = float64(len(traced["op"]))
		m["op_p95_ms"] = quantile(traced["op"], 0.95)
		m["op_max_ms"] = maxOf(traced["op"])
		m["read_p50_ms"] = median(traced["read"])
		m["trace_overhead_share"] = median(traced["op"])/median(rec["op"]) - 1
		m["traced_ops_per_s"] = ops / tracedElapsed
		// Counts are per operation, so runs that complete different
		// numbers of operations compare; checkpoints and writebacks are
		// background work and stay window totals.
		m["sqldb.commits"] = float64(eng.commits) / ops
		m["sqldb.fsyncs"] = float64(eng.fsyncs) / ops
		m["sqldb.fsyncs_per_commit"] = share(eng.fsyncs, eng.commits)
		m["sqldb.wal_bytes"] = float64(dev.walBytes) / ops
		m["sqldb.checkpoints"] = float64(eng.checkpoints)
		m["sqldb.pool_writebacks"] = float64(eng.poolWritebacks)
		m["sqldb.pool_faults_per_op"] = float64(eng.poolFaults) / ops
		m["sqldb.pool_evictions_per_op"] = float64(eng.poolEvictions) / ops
		m["sqldb.pool_hit_rate"] = share(eng.poolHits, eng.poolHits+eng.poolFaults)
		m["sqldb.plan_cache_hit_rate"] = share(eng.planHits, eng.planHits+eng.planMisses)
		m["vfs.writes"] = float64(dev.writes) / ops
		m["vfs.write_bytes"] = float64(dev.writeBytes) / ops
		m["vfs.fsyncs"] = float64(dev.fsyncs) / ops
		m["vfs.read_bytes"] = float64(dev.readBytes) / ops

		self := tr.selfTimes()
		m["unattributed_ms"] = self[rootSpan]
		m["unattributed_share"] = self[rootSpan] / median(traced["op"])
		if err := w.layers(m, traced); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(log, "trace: %d spans written to %s\n", len(tr.spans), path)
		printSelfTimes(log, self)
	}

	if err := w.finish(); err != nil {
		return nil, fmt.Errorf("final checks: %w", err)
	}
	if err := w.teardown(); err != nil {
		return nil, fmt.Errorf("tearing down: %w", err)
	}
	out := &outcome{attempted: r.attempted.Load(), failed: r.failed.Load(), metrics: m}
	if cfg.trace {
		m["failed_share"] = float64(out.failed) / float64(max(1, out.attempted))
	}
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return out, nil
}

// rootSpan names every operation's root span; its self time is what no
// call into the system accounts for.
const rootSpan = "op"

func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func printSelfTimes(log io.Writer, self map[string]float64) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintln(log, "span self times (median per operation, ms):")
	for _, n := range names {
		fmt.Fprintf(log, "  %-14s %10.3f\n", n, self[n])
	}
}

// dirBytes sums the sizes of a data directory's files.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
