// Package bench is the experiment harness: it regenerates every table
// and figure of the reproduced evaluation (see DESIGN.md's experiment
// index) and prints them as Markdown tables. Absolute numbers are the
// host's; the reproduction target is the shapes — who wins, by what
// factor, where the crossovers fall.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Config scales the harness.
type Config struct {
	// Factor is the base XMark scale factor (default 0.25).
	Factor float64
	// Seed drives the deterministic generators.
	Seed uint64
	// Quick shrinks sweeps for smoke runs.
	Quick bool
	// Repeat is the per-measurement repetition count (default 3; the
	// minimum is reported).
	Repeat int
}

func (c Config) withDefaults() Config {
	if c.Factor <= 0 {
		c.Factor = 0.25
	}
	if c.Repeat <= 0 {
		c.Repeat = 3
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, cfg Config) error
}

// All lists every experiment in report order.
func All() []Experiment {
	return []Experiment{
		{ID: "T1", Title: "Database size per scheme", Run: runT1},
		{ID: "T2", Title: "Document loading time per scheme", Run: runT2},
		{ID: "F1", Title: "Query time by query class across schemes", Run: runF1},
		{ID: "P1", Title: "Per-operator runtime profile (EXPLAIN ANALYZE) across schemes", Run: runP1},
		{ID: "F2", Title: "Descendant-step cost vs document depth (edge expansion vs interval range)", Run: runF2},
		{ID: "T3", Title: "Full-document reconstruction time per scheme", Run: runT3},
		{ID: "F3", Title: "Ordered subtree insertion cost (Dewey vs interval renumber vs edge)", Run: runF3},
		{ID: "T4", Title: "DTD inlining: schema size, joins per query, speed vs edge", Run: runT4},
		{ID: "F4", Title: "Query scalability vs document scale factor", Run: runF4},
		{ID: "F5", Title: "Value-index ablation vs table size", Run: runF5},
		{ID: "T5", Title: "Native DOM XPath vs relational translation", Run: runT5},
		{ID: "T6", Title: "Order-sensitive queries across order encodings", Run: runT6},
		{ID: "A1", Title: "Ablation: edge descendant expansion, blind vs path-catalog", Run: runA1},
		{ID: "A2", Title: "Ablation: interval child step, parent probe vs region predicate", Run: runA2},
	}
}

// Run executes the selected experiments ("" or "all" = every one).
func Run(w io.Writer, ids []string, cfg Config) error {
	cfg = cfg.withDefaults()
	want := map[string]bool{}
	for _, id := range ids {
		id = strings.ToUpper(strings.TrimSpace(id))
		if id == "" || id == "ALL" {
			want = nil
			break
		}
		want[id] = true
	}
	ran := 0
	for _, e := range All() {
		if want != nil && !want[e.ID] {
			continue
		}
		fmt.Fprintf(w, "\n== %s: %s ==\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(w, cfg); err != nil {
			return fmt.Errorf("bench %s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "(%s completed in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("bench: no experiment matched %v", ids)
	}
	return nil
}

// timeIt reports the minimum duration of fn over cfg.Repeat runs.
func timeIt(cfg Config, fn func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < cfg.Repeat; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// table renders rows as a Markdown pipe table, so xbench's output is
// the record EXPERIMENTS.md quotes.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	line := func(cells []string) { fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")) }
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = "---"
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

func kb(b int64) string {
	return fmt.Sprintf("%.0f", float64(b)/1024.0)
}
