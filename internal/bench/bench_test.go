package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tinyConfig keeps harness self-tests fast: minimal scales and sweeps.
func tinyConfig() Config {
	return Config{
		Scale:       0.02, // multiplies the already-small experiment bases
		Threads:     []int{1, 2},
		Runs:        1,
		Seed:        7,
		MaxMemBytes: 1 << 30,
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "fig1", "table1", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig9-amdahl", "fig10", "seqgap", "baselines",
		"exactness", "complexity", "distmem", "workstats", "weighted", "oracle",
		"ablation-queue", "ablation-buckets",
		"ablation-threshold", "ablation-reuse",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(got), len(want), got)
	}
	for i, id := range want {
		if got[i] != id {
			t.Errorf("registry[%d] = %q, want %q", i, got[i], id)
		}
	}
	for _, e := range Registry() {
		if e.Paper == "" || e.Title == "" || e.Expect == "" || e.Run == nil {
			t.Errorf("experiment %q has missing metadata", e.ID)
		}
	}
}

func TestGet(t *testing.T) {
	e, err := Get("fig8")
	if err != nil || e.ID != "fig8" {
		t.Fatalf("Get(fig8) = %v, %v", e.ID, err)
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestEveryExperimentRunsAtTinyScale executes the full registry end to end
// on miniature workloads: this is the integration test of the harness,
// datasets, ordering, core and baselines together.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short mode")
	}
	cfg := tinyConfig()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := RunOne(e, cfg, &buf); err != nil {
				t.Fatalf("%s failed: %v\noutput:\n%s", e.ID, err, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) {
				t.Errorf("%s output missing banner: %q", e.ID, out[:min(len(out), 200)])
			}
			if !strings.Contains(out, "completed in") {
				t.Errorf("%s output missing completion marker", e.ID)
			}
		})
	}
}

func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short mode")
	}
	var buf bytes.Buffer
	if err := RunAll(tinyConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		if !strings.Contains(buf.String(), "=== "+id) {
			t.Errorf("RunAll output missing %s", id)
		}
	}
}

func TestMemoryBoundRefusal(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxMemBytes = 64 // nothing fits
	e, _ := Get("fig8")
	var buf bytes.Buffer
	if err := RunOne(e, cfg, &buf); err == nil {
		t.Error("fig8 ran despite a 64-byte matrix bound")
	}
}

func TestSpeedups(t *testing.T) {
	s := Speedups([]time.Duration{100, 50, 25})
	want := []float64{1, 2, 4}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("Speedups[%d] = %g, want %g", i, s[i], want[i])
		}
	}
	if got := Speedups(nil); len(got) != 0 {
		t.Error("Speedups(nil) non-empty")
	}
	if got := Speedups([]time.Duration{0, 10}); got[0] != 0 || got[1] != 0 {
		t.Errorf("zero-base speedups = %v", got)
	}
}

func TestMeasure(t *testing.T) {
	calls := 0
	d := Measure(3, 1, func() { calls++; time.Sleep(time.Millisecond) })
	if calls != 3 {
		t.Errorf("Measure ran f %d times, want 3", calls)
	}
	if d < time.Millisecond/2 {
		t.Errorf("mean duration %v suspiciously small", d)
	}
	if Measure(0, 1, func() {}) < 0 {
		t.Error("negative duration")
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{1500 * time.Millisecond, "1500 ms"},
		{12 * time.Millisecond, "12.00 ms"},
		{1500 * time.Microsecond, "1.50 ms"},
		{120 * time.Microsecond, "0.1200 ms"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"name", "value"},
	}
	tb.AddRow("alpha", 42)
	tb.AddRow("beta-very-long", 7)
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Fatalf("table output: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
	// header and separator align
	if len(lines[1]) == 0 || len(lines[2]) == 0 {
		t.Error("missing header or separator")
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := &Table{Header: []string{"x"}}
	tb.AddRow(3.14159)
	var buf bytes.Buffer
	tb.Fprint(&buf)
	if !strings.Contains(buf.String(), "3.14") || strings.Contains(buf.String(), "3.14159") {
		t.Errorf("float formatting: %q", buf.String())
	}
}

func TestIsNumeric(t *testing.T) {
	for _, s := range []string{"42", "3.14", "12.00 ms", "2.50x", "-1"} {
		if !isNumeric(s) {
			t.Errorf("isNumeric(%q) = false", s)
		}
	}
	for _, s := range []string{"", "alpha", "ms", "n/a"} {
		if isNumeric(s) {
			t.Errorf("isNumeric(%q) = true", s)
		}
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized()
	d := Default()
	if c.Scale != d.Scale || len(c.Threads) != len(d.Threads) || c.Runs != d.Runs || c.Seed != d.Seed || c.MaxMemBytes != d.MaxMemBytes {
		t.Errorf("normalized zero config = %+v", c)
	}
	c2 := Config{Scale: 0.5, Runs: 9}.normalized()
	if c2.Scale != 0.5 || c2.Runs != 9 {
		t.Error("explicit fields overwritten")
	}
}

func TestSortedCopyDoesNotMutate(t *testing.T) {
	in := []int{4, 1, 2}
	out := sortedCopy(in)
	if out[0] != 1 || out[2] != 4 {
		t.Errorf("sortedCopy = %v", out)
	}
	if in[0] != 4 {
		t.Error("input mutated")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
