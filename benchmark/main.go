// Command benchmark is the repository's benchmark: four closed-loop
// workloads through the real front door of the default production
// configuration, end-to-end metrics untraced and per-layer metrics from
// a traced run. BENCHMARK.json at the repository root is its contract;
// README.md explains every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, per workload. One
// operation is a load→checkpoint→restart→publish cycle (load.stream), a
// round of the six query classes over HTTP (query.*), or a durable
// ordered insert (update.ordered).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"heap_mib_per_xml_mib", "ratio"},
	{"stored_bytes_per_xml_byte", "ratio"},
}

// perLayer is reported by the traced run. A metric a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	// Diagnostics of the traced window itself.
	{"op_samples", "count"},
	{"op_p95_ms", "ms"},
	{"op_max_ms", "ms"},
	{"traced_ops_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"failed_share", "ratio"},
	{"trace_overhead_share", "ratio"},
	{"unattributed_ms", "ms"},
	{"unattributed_share", "ratio"},
	// load.stream's phases as a user sees them.
	{"load_mib_s", "MiB/s"},
	{"reopen_ms", "ms"},
	{"reconstruct_mib_s", "MiB/s"},
	// The write path, top to bottom.
	{"xmldom.tokenize_ms", "ms"},
	{"xmldom.tokens", "count"},
	{"shred.rows", "count"},
	{"shred.self_ms", "ms"},
	{"sqldb.insert_ms", "ms"},
	{"sqldb.wal_ms", "ms"},
	{"sqldb.fsync_ms", "ms"},
	{"sqldb.checkpoint_ms", "ms"},
	{"sqldb.snapshot_bytes", "bytes"},
	{"sqldb.recover_ms", "ms"},
	{"publish.reconstruct_ms", "ms"},
	{"xmldom.serialize_ms", "ms"},
	// Engine and device counters over the traced window, per operation
	// except checkpoints and writebacks.
	{"sqldb.commits", "count"},
	{"sqldb.fsyncs", "count"},
	{"sqldb.fsyncs_per_commit", "ratio"},
	{"sqldb.wal_bytes", "bytes"},
	{"sqldb.checkpoints", "count"},
	{"vfs.writes", "count"},
	{"vfs.write_bytes", "bytes"},
	{"vfs.fsyncs", "count"},
	{"vfs.read_bytes", "bytes"},
	// The read path, per round of six classes.
	{"server.line_ms", "ms"},
	{"server.http_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"core.query_ms", "ms"},
	{"sqldb.exec_ms", "ms"},
	{"server.line_self_ms", "ms"},
	{"server.http_self_ms", "ms"},
	{"server.handler_self_ms", "ms"},
	{"core.self_ms", "ms"},
	{"sqldb.exec_share", "ratio"},
	{"wait_ms", "ms"},
	{"xpath.parse_us", "us"},
	{"translate.first_us", "us"},
	{"translate.cached_us", "us"},
	{"sqldb.plan_miss_us", "us"},
	{"sqldb.plan_hit_us", "us"},
	{"sqldb.plan_cache_hit_rate", "ratio"},
	{"sqldb.rows_examined_per_result", "ratio"},
	{"sqldb.pool_hit_rate", "ratio"},
	{"sqldb.pool_faults_per_op", "count"},
	{"sqldb.pool_evictions_per_op", "count"},
	{"sqldb.pool_writebacks", "count"},
	// The ordered insert.
	{"xmldom.parse_fragment_us", "us"},
	{"shred.insert_mem_ms", "ms"},
	{"sqldb.commit_ms", "ms"},
	{"sqldb.commit_wal_ms", "ms"},
	{"sqldb.commit_fsync_ms", "ms"},
}

// The four workloads and why each exists are in BENCHMARK.json and
// README.md; the names are fixed because later issues cite them.
var workloadNames = []string{"load.stream", "query.hot", "query.paged", "update.ordered"}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints every metric of the mode by name with its unit, then
// the one-line JSON result.
func report(w io.Writer, defs []metricDef, out *outcome) error {
	res := resultJSON{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v := out.metrics[d.name]
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-32s %16.6f %s\n", d.name, v, d.unit)
	}
	for name := range out.metrics {
		if !known[name] {
			return fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built in a git checkout)"
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "one of load.stream, query.hot, query.paged, update.ordered")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated document and the insert positions")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced window")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.factor, cfg.poolPages, cfg.setups = 1, 32, 3

	// The ambient environment must not fork the engine under test.
	os.Unsetenv("XRDB_VECTORIZED")
	os.Unsetenv("XRDB_BUFFER_POOL")
	runtime.GOMAXPROCS(clients)

	// Everything the benchmark writes stays inside the checkout it is
	// run from: data under .bench_build, traces under benchmark/out.
	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	cfg.outDir = filepath.Join(cwd, "benchmark", "out")
	build := filepath.Join(cwd, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return fail(err)
	}
	if cfg.dataRoot, err = os.MkdirTemp(build, "data-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(cfg.dataRoot)

	fmt.Printf("workload %s, seed %d, window %gs, trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s, commit %s, data on %s (%s)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), cfg.dataRoot, fsType(cfg.dataRoot))
	fmt.Println("configuration: zero-valued core.Options and DurableOptions (query.paged: BufferPoolPages 32);",
		"flush policy: fsync on every commit, auto-checkpoint at 4 MiB of WAL; closed loop,", clients, "callers")

	settleDisk()
	out, err := execute(cfg, os.Stdout)
	if err != nil {
		return fail(err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := report(os.Stdout, defs, out); err != nil {
		return fail(err)
	}
	if out.failed > 0 {
		return 1
	}
	return 0
}

// fail reports an invocation that produced no result.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}
