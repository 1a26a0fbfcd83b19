// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 5) plus the Section 3/4
// micro-experiments and this repository's own ablations. Each experiment
// is a named, self-describing unit that prints the same rows/series the
// paper reports; cmd/apspbench is the CLI front end and bench_test.go
// wraps the same runners as testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// Config tunes an experiment run. Zero fields take defaults (see Default).
type Config struct {
	// Scale multiplies each experiment's default dataset scale. 1.0
	// reproduces the harness defaults (chosen to fit this container);
	// larger values approach the paper's full-size runs at the cost of
	// O(n^2) memory.
	Scale float64
	// Threads is the worker-count sweep. The paper uses 1..16 on
	// Machine-I and 1..32 on Machine-II.
	Threads []int
	// Runs is the number of repetitions per measurement; the mean is
	// reported. The paper averages 10 runs.
	Runs int
	// Seed makes the synthetic datasets deterministic.
	Seed int64
	// MaxMemBytes bounds the distance-matrix allocation; experiments
	// that would exceed it are skipped with a note rather than thrashing.
	MaxMemBytes uint64
}

// Default returns the harness defaults: a thread sweep of 1-16, one run,
// container-sized datasets, and a 4 GB matrix bound.
func Default() Config {
	return Config{
		Scale:       1.0,
		Threads:     []int{1, 2, 4, 8, 16},
		Runs:        1,
		Seed:        42,
		MaxMemBytes: 4 << 30,
	}
}

// normalized fills zero fields with defaults.
func (c Config) normalized() Config {
	d := Default()
	if c.Scale == 0 {
		c.Scale = d.Scale
	}
	if len(c.Threads) == 0 {
		c.Threads = d.Threads
	}
	if c.Runs == 0 {
		c.Runs = d.Runs
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.MaxMemBytes == 0 {
		c.MaxMemBytes = d.MaxMemBytes
	}
	return c
}

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	// ID is the harness name (e.g. "fig8", "table1", "ablation-queue").
	ID string
	// Paper locates the experiment in the paper ("Figure 8", "Table 1",
	// or "ours" for ablations).
	Paper string
	// Title is a one-line description.
	Title string
	// Expect states the paper's qualitative claim the output should be
	// checked against.
	Expect string
	// Run executes the experiment, writing its tables to w.
	Run func(cfg Config, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Registry returns all experiments in registration (paper) order.
func Registry() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// RunAll executes every registered experiment.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range Registry() {
		if err := RunOne(e, cfg, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// RunOne executes a single experiment with its standard banner.
func RunOne(e Experiment, cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "=== %s (%s): %s\n", e.ID, e.Paper, e.Title)
	fmt.Fprintf(w, "    expect: %s\n\n", e.Expect)
	start := time.Now()
	if err := e.Run(cfg.normalized(), w); err != nil {
		return err
	}
	fmt.Fprintf(w, "    [%s completed in %s]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}

// Measure runs f runs times and returns the mean wall-clock duration.
// GOMAXPROCS is raised to at least workers for the duration of the
// measurement so that logical workers can run in parallel when the host
// has the cores; on fewer cores the measurement is still well-defined
// (workers time-share), which EXPERIMENTS.md discusses.
func Measure(runs, workers int, f func()) time.Duration {
	if runs < 1 {
		runs = 1
	}
	prev := runtime.GOMAXPROCS(0)
	if workers > prev {
		runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(prev)
	}
	var total time.Duration
	for i := 0; i < runs; i++ {
		// Collect garbage from the previous repetition so its pause does
		// not land inside this one's timing window — the distance
		// matrices discarded between runs are hundreds of megabytes.
		runtime.GC()
		start := time.Now()
		f()
		total += time.Since(start)
	}
	return total / time.Duration(runs)
}

// Speedups converts a thread-sweep time series into parallel speedups
// relative to the first (1-thread) entry, the quantity Figures 9 and 10(b)
// plot.
func Speedups(times []time.Duration) []float64 {
	out := make([]float64, len(times))
	if len(times) == 0 || times[0] == 0 {
		return out
	}
	base := float64(times[0])
	for i, t := range times {
		if t > 0 {
			out[i] = base / float64(t)
		}
	}
	return out
}

// FormatDuration renders a duration in the milliseconds the paper's tables
// use, with adaptive precision.
func FormatDuration(d time.Duration) string {
	ms := float64(d) / float64(time.Millisecond)
	switch {
	case ms >= 100:
		return fmt.Sprintf("%.0f ms", ms)
	case ms >= 1:
		return fmt.Sprintf("%.2f ms", ms)
	default:
		return fmt.Sprintf("%.4f ms", ms)
	}
}

// sortedCopy returns a sorted copy of the thread sweep (defensive: the
// speedup baseline must be the smallest worker count).
func sortedCopy(threads []int) []int {
	out := make([]int, len(threads))
	copy(out, threads)
	sort.Ints(out)
	return out
}
