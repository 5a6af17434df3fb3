package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"testing"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smoke is every workload at a scale that runs in about a second.
func smoke(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{
		workload: workload, seed: 7, seconds: 0.3, trace: trace,
		factor: 0.02, poolPages: 2, setups: 2, dataRoot: dir, outDir: dir,
	}
}

// TestContract pins the program's metric and workload tables to
// BENCHMARK.json, name by name and unit by unit.
func TestContract(t *testing.T) {
	c := readContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	var e2e, layers []metricDef
	for _, m := range c.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range c.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", layers, perLayer)
	}
}

// TestSmoke runs all four workloads untraced and traced and requires a
// correct outcome in which every declared metric is emitted and finite,
// every end-to-end metric is non-zero, and the layers a workload is said
// to bypass did no work.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			out, err := execute(smoke(t, name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", name, trace, out.failed, out.attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if err := report(io.Discard, defs, out); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
			}
			for _, d := range defs {
				v, ok := out.metrics[d.name]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s = %v", name, trace, d.name, v)
				}
				if !trace && (!ok || v <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v)
				}
			}
			if !trace {
				continue
			}
			m := out.metrics
			zero := func(names ...string) {
				for _, n := range names {
					if m[n] != 0 {
						t.Errorf("%s: %s = %v, want 0 (layer bypassed)", name, n, m[n])
					}
				}
			}
			positive := func(names ...string) {
				for _, n := range names {
					if m[n] <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, n, m[n])
					}
				}
			}
			switch name {
			case "load.stream":
				positive("load_mib_s", "reopen_ms", "reconstruct_mib_s", "shred.rows", "xmldom.tokens",
					"sqldb.commits", "sqldb.fsyncs", "sqldb.wal_bytes", "vfs.write_bytes", "vfs.fsyncs", "sqldb.snapshot_bytes")
				zero("sqldb.pool_faults_per_op", "sqldb.pool_evictions_per_op", "sqldb.pool_writebacks", "server.http_ms")
			case "query.hot":
				positive("server.http_ms", "sqldb.exec_ms", "sqldb.plan_cache_hit_rate", "read_p50_ms")
				zero("sqldb.pool_hit_rate", "sqldb.pool_faults_per_op", "sqldb.pool_evictions_per_op", "sqldb.pool_writebacks",
					"sqldb.commits", "sqldb.fsyncs", "sqldb.wal_bytes", "sqldb.checkpoints",
					"vfs.writes", "vfs.write_bytes", "vfs.fsyncs", "vfs.read_bytes", "shred.rows")
			case "query.paged":
				positive("server.http_ms", "sqldb.exec_ms", "sqldb.pool_faults_per_op", "sqldb.pool_evictions_per_op", "vfs.read_bytes")
				zero("sqldb.commits", "sqldb.fsyncs", "sqldb.wal_bytes", "vfs.write_bytes", "shred.rows")
			case "update.ordered":
				positive("sqldb.commits", "sqldb.fsyncs", "sqldb.fsyncs_per_commit", "sqldb.wal_bytes",
					"vfs.write_bytes", "read_p50_ms", "shred.insert_mem_ms", "xmldom.parse_fragment_us")
				zero("sqldb.pool_faults_per_op", "sqldb.pool_writebacks")
			}
		}
	}
}

// TestWrongAnswerFails corrupts one expected answer and requires the
// run to report failures instead of a clean result.
func TestWrongAnswerFails(t *testing.T) {
	cfg := smoke(t, "query.hot", false)
	in, err := makeInputs(cfg.factor, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	in.expect[1] = in.expect[1][1:]
	out, err := executeWith(cfg, in, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 {
		t.Fatalf("a corrupted oracle went unnoticed over %d operations", out.attempted)
	}
}
