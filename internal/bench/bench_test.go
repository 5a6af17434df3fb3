package bench

import (
	"regexp"
	"strings"
	"testing"
)

// TestRunAllQuick executes every experiment end-to-end at smoke scale:
// the harness itself is part of the deliverable, so it must never bitrot.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke run skipped in -short mode")
	}
	var b strings.Builder
	cfg := Config{Factor: 0.05, Seed: 7, Quick: true, Repeat: 1}
	if err := Run(&b, []string{"all"}, cfg); err != nil {
		t.Fatalf("run: %v\noutput so far:\n%s", err, b.String())
	}
	out := b.String()
	for _, e := range All() {
		if !strings.Contains(out, "== "+e.ID+":") {
			t.Errorf("output missing experiment %s", e.ID)
		}
	}
	// Spot-check that the tables carry scheme rows.
	for _, frag := range []string{"edge", "interval", "dewey", "inline", "universal", "binary"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing scheme %s", frag)
		}
	}
	// Every updatable mapping completes its ordered inserts; only
	// universal refuses them, by design.
	f3 := out[strings.Index(out, "== F3:"):strings.Index(out, "== T4:")]
	for _, name := range []string{"edge", "binary", "interval", "dewey", "inline"} {
		row := regexp.MustCompile(`(?m)^\| ` + name + ` \| .* \| 10 inserts \|$`)
		if !row.MatchString(f3) {
			t.Errorf("F3 has no completed-inserts row for %s:\n%s", name, f3)
		}
	}
}

func TestRunSelection(t *testing.T) {
	var b strings.Builder
	cfg := Config{Factor: 0.02, Seed: 7, Quick: true, Repeat: 1}
	if err := Run(&b, []string{"T2"}, cfg); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "== T1:") || !strings.Contains(b.String(), "== T2:") {
		t.Errorf("selection not honored:\n%s", b.String())
	}
	if err := Run(&b, []string{"BOGUS"}, cfg); err == nil {
		t.Error("bogus experiment id accepted")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := newTable("col1", "longer column")
	tb.add("a", "b")
	tb.add("wider cell", "c")
	var b strings.Builder
	tb.write(&b)
	want := "| col1 | longer column |\n| --- | --- |\n| a | b |\n| wider cell | c |\n"
	if b.String() != want {
		t.Errorf("table =\n%s\nwant\n%s", b.String(), want)
	}
}

func TestCountTableRefs(t *testing.T) {
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT 1 FROM a WHERE x", 1},
		{"SELECT 1 FROM a, b, c WHERE x", 3},
		{"SELECT 1 FROM a WHERE EXISTS (SELECT 1 FROM b, c WHERE y)", 3},
		{"SELECT 1", 0},
	}
	for _, c := range cases {
		if got := countTableRefs(c.sql); got != c.want {
			t.Errorf("countTableRefs(%q) = %d, want %d", c.sql, got, c.want)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := ms(2500000); got != "2.500" { // 2.5ms as time.Duration (ns)
		t.Errorf("ms = %q", got)
	}
	if got := kb(2048); got != "2" {
		t.Errorf("kb = %q", got)
	}
	cfg := Config{}.withDefaults()
	if cfg.Factor != 0.25 || cfg.Repeat != 3 || cfg.Seed == 0 {
		t.Errorf("defaults = %+v", cfg)
	}
}
