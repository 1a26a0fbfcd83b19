package main

import (
	"math"
	"slices"
	"strings"
	"testing"

	"parapsp/internal/core"
	"parapsp/internal/gen"
)

var testDatasets = []string{"power-law", "power-law/subset64", "grid", "grid/subset64"}

// passing returns a synthetic report and a baseline it passes: every
// gated ratio equals its baseline, the auto row picks dijkstra (1.0)
// while deltastar (0.90) is best, and every store reading sits inside its
// bound.
func passing() (report, *gateBaseline) {
	ratios := map[string]float64{
		core.KernelDijkstra:  1,
		core.KernelDeltaStar: 0.9,
		core.KernelHeap:      60,
		core.KernelSweep:     2,
		autoRow:              0.97,
	}
	base := &gateBaseline{VsDijkstra: map[string]map[string]float64{}}
	base.Store.TierHeapBytes = 2 << 20
	base.Store.VmRSSBytes = 16 << 20
	rep := report{Store: storeRun{
		ScaleFactor:   16,
		P99Ratio:      1.3,
		ColdRows:      200,
		TierHeapBytes: 2 << 20,
		VmRSSBytes:    16 << 20,
		ExactChecked:  96,
		Metrics: map[string]int64{
			"serve.store.lookups":         100,
			"serve.store.sketch_answered": 10,
			"serve.store.t1_hits":         50,
			"serve.store.t2_promotes":     20,
			"serve.store.t3_promotes":     10,
			"serve.store.misses":          10,
			"store.decode_errors":         0,
		},
	}}
	for _, name := range testDatasets {
		ds := dataset{Name: name}
		base.VsDijkstra[name] = map[string]float64{}
		for _, k := range raceKernels {
			r := row{Kernel: k, Ratio: ratios[k], Checksum: 0xfeed}
			if k == autoRow {
				r.Resolved = core.KernelDijkstra
			}
			if !exempt[k] {
				base.VsDijkstra[name][k] = r.Ratio
			}
			ds.Rows = append(ds.Rows, r)
		}
		rep.Race = append(rep.Race, ds)
	}
	return rep, base
}

// rowOf returns the named row of the named dataset.
func rowOf(t *testing.T, rep *report, name, kern string) *row {
	t.Helper()
	for i := range rep.Race {
		if rep.Race[i].Name != name {
			continue
		}
		for j := range rep.Race[i].Rows {
			if rep.Race[i].Rows[j].Kernel == kern {
				return &rep.Race[i].Rows[j]
			}
		}
	}
	t.Fatalf("no row %s/%s", name, kern)
	return nil
}

// removeRow drops the named row of the named dataset.
func removeRow(rep *report, name, kern string) {
	for i := range rep.Race {
		if rep.Race[i].Name == name {
			rows := rep.Race[i].Rows[:0]
			for _, r := range rep.Race[i].Rows {
				if r.Kernel != kern {
					rows = append(rows, r)
				}
			}
			rep.Race[i].Rows = rows
		}
	}
}

func above(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

func TestCheck(t *testing.T) {
	type tc struct {
		name   string
		noBase bool // check without a baseline, as -write does
		mut    func(t *testing.T, rep *report, base *gateBaseline)
		want   string // a substring of the expected failure; "" passes
	}
	cases := []tc{
		{name: "passing report", mut: func(*testing.T, *report, *gateBaseline) {}},

		// Store: exactness.
		{name: "one mismatch", want: "differ from baseline.DijkstraSSSP",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Store.ExactMismatch = 1 }},
		{name: "no spot checks", want: "no exactness spot checks",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Store.ExactChecked = 0 }},
		// Store: ledger.
		{name: "ledger off by one", want: "ledger does not reconcile",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Store.Metrics["serve.store.misses"]++ }},
		{name: "no lookups", want: "ledger does not reconcile",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Store.Metrics = map[string]int64{} }},
		// Store: scale and cold tier.
		{name: "scale at floor",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Store.ScaleFactor = 10 }},
		{name: "scale below floor", want: "scale factor",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) {
				r.Store.ScaleFactor = math.Nextafter(10, 0)
			}},
		{name: "one cold row",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Store.ColdRows = 1 }},
		{name: "no cold rows", want: "cold tier never engaged",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Store.ColdRows = 0 }},
		{name: "one decode error", want: "decode errors",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Store.Metrics["store.decode_errors"] = 1 }},
		// Store: tail.
		{name: "p99 ratio at cap",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Store.P99Ratio = 2 }},
		{name: "p99 ratio past cap", want: "tiered p99",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Store.P99Ratio = above(2) }},
		{name: "p99 ratio zero", want: "tiered p99",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Store.P99Ratio = 0 }},
		// Store: memory against the baseline.
		{name: "heap at cap",
			mut: func(_ *testing.T, r *report, b *gateBaseline) {
				r.Store.TierHeapBytes = int64(float64(b.Store.TierHeapBytes)*1.5) + 4<<20
			}},
		{name: "heap past cap", want: "tiered heap",
			mut: func(_ *testing.T, r *report, b *gateBaseline) {
				r.Store.TierHeapBytes = int64(float64(b.Store.TierHeapBytes)*1.5) + 4<<20 + 1
			}},
		{name: "VmRSS at cap",
			mut: func(_ *testing.T, r *report, b *gateBaseline) {
				r.Store.VmRSSBytes = int64(float64(b.Store.VmRSSBytes)*1.5) + 16<<20
			}},
		{name: "VmRSS past cap", want: "VmRSS",
			mut: func(_ *testing.T, r *report, b *gateBaseline) {
				r.Store.VmRSSBytes = int64(float64(b.Store.VmRSSBytes)*1.5) + 16<<20 + 1
			}},
		{name: "VmRSS unreadable skips the check",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Store.VmRSSBytes = 0 }},
		{name: "baseline VmRSS unreadable skips the check",
			mut: func(_ *testing.T, r *report, b *gateBaseline) {
				b.Store.VmRSSBytes = 0
				r.Store.VmRSSBytes = 1 << 40
			}},
		{name: "no baseline: memory is not compared", noBase: true,
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Store.TierHeapBytes = 1 << 40 }},
		{name: "no baseline: contracts still hold", noBase: true, want: "tiered p99",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Store.P99Ratio = above(2) }},

		// Kernels: exemptions and missing rows.
		{name: "heap is exempt",
			mut: func(t *testing.T, r *report, b *gateBaseline) {
				rowOf(t, r, "power-law", core.KernelHeap).Ratio = 1e6
				b.VsDijkstra["power-law"][core.KernelHeap] = 1
			}},
		{name: "fresh row without a baseline", want: "power-law/deltastar: no baseline row; re-draw the baseline with -write",
			mut: func(_ *testing.T, _ *report, b *gateBaseline) {
				delete(b.VsDijkstra["power-law"], core.KernelDeltaStar)
			}},
		{name: "baseline row not measured", want: "grid/sweep: baseline row was not measured; re-draw the baseline with -write",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { removeRow(r, "grid", core.KernelSweep) }},
		{name: "fresh dataset without a baseline", want: "grid/subset64: no baseline dataset; re-draw the baseline with -write",
			mut: func(_ *testing.T, _ *report, b *gateBaseline) { delete(b.VsDijkstra, "grid/subset64") }},
		{name: "baseline dataset not measured", want: "grid/subset64: baseline dataset was not measured; re-draw the baseline with -write",
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { r.Race = r.Race[:3] }},
		{name: "no baseline: missing rows are not compared", noBase: true,
			mut: func(_ *testing.T, r *report, _ *gateBaseline) { removeRow(r, "grid", core.KernelSweep) }},
	}

	// Kernels: the three race checks, on each dataset.
	for _, name := range testDatasets {
		cases = append(cases,
			tc{name: name + ": checksum differs", want: name + "/sweep: checksum",
				mut: func(t *testing.T, r *report, _ *gateBaseline) { rowOf(t, r, name, core.KernelSweep).Checksum++ }},
			tc{name: name + ": auto checksum differs", noBase: true, want: name + "/auto: checksum",
				mut: func(t *testing.T, r *report, _ *gateBaseline) { rowOf(t, r, name, autoRow).Checksum++ }},
			tc{name: name + ": regression at bound",
				mut: func(t *testing.T, r *report, b *gateBaseline) {
					rowOf(t, r, name, core.KernelSweep).Ratio = limit(b.VsDijkstra[name][core.KernelSweep], regressTol)
				}},
			tc{name: name + ": regression past bound", want: name + "/sweep: vs_dijkstra",
				mut: func(t *testing.T, r *report, b *gateBaseline) {
					rowOf(t, r, name, core.KernelSweep).Ratio = above(limit(b.VsDijkstra[name][core.KernelSweep], regressTol))
				}},
			tc{name: name + ": no baseline skips the regression", noBase: true,
				mut: func(t *testing.T, r *report, _ *gateBaseline) { rowOf(t, r, name, core.KernelSweep).Ratio = 1e6 }},
			// The auto row picked dijkstra; deltastar (0.90) is best.
			tc{name: name + ": auto pick at bound", noBase: true,
				mut: func(t *testing.T, r *report, _ *gateBaseline) {
					rowOf(t, r, name, core.KernelDijkstra).Ratio = limit(0.9, autoTol)
				}},
			tc{name: name + ": auto pick past bound", noBase: true, want: name + ": auto (-> dijkstra)",
				mut: func(t *testing.T, r *report, _ *gateBaseline) {
					rowOf(t, r, name, core.KernelDijkstra).Ratio = above(limit(0.9, autoTol))
				}},
			tc{name: name + ": auto scored by its pick, not its own draw", noBase: true,
				mut: func(t *testing.T, r *report, _ *gateBaseline) { rowOf(t, r, name, autoRow).Ratio = 1e6 }},
			tc{name: name + ": no auto row", noBase: true, want: name + ": no auto row",
				mut: func(_ *testing.T, r *report, _ *gateBaseline) { removeRow(r, name, autoRow) }},
		)
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, base := passing()
			c.mut(t, &rep, base)
			if c.noBase {
				base = nil
			}
			fails := check(rep, base)
			if c.want == "" {
				if len(fails) != 0 {
					t.Fatalf("want pass, got %q", fails)
				}
				return
			}
			if len(fails) != 1 || !strings.Contains(fails[0], c.want) {
				t.Fatalf("want one failure containing %q, got %q", c.want, fails)
			}
		})
	}
}

// TestRaceKernelsCoverRegistry pins raceKernels against the kernel
// registry, as the core package pins its differential battery: dijkstra
// first (every ratio's denominator), auto last, and between them exactly
// the registered kernels that solve a weighted graph, in registry order.
// A kernel added later cannot escape the race.
func TestRaceKernelsCoverRegistry(t *testing.T) {
	g, err := gen.Grid2D(4, 4, true, seed, gen.Weighting{Min: 1, Max: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{core.KernelDijkstra}
	for _, name := range core.Kernels() {
		kern, err := core.LookupKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		if name != core.KernelDijkstra && kern.Supports(g, core.Options{Workers: raceWorkers, Kernel: name}) == nil {
			want = append(want, name)
		}
	}
	want = append(want, autoRow)
	if !slices.Equal(raceKernels, want) {
		t.Fatalf("raceKernels = %v, want %v", raceKernels, want)
	}
}

// TestBounds pins the ratio bounds TestCheck reaches through limit:
// kernels within 10% (+0.5) of their baseline, the default pick within 5%
// (+0.5) of the best kernel.
func TestBounds(t *testing.T) {
	if got := limit(1, regressTol); got != 1.6 {
		t.Errorf("regression limit for baseline 1 = %v, want 1.6", got)
	}
	if got := limit(1, autoTol); got != 1.55 {
		t.Errorf("auto limit for best 1 = %v, want 1.55", got)
	}
}

// TestMedian pins the median the race takes of its rounds and -write
// takes of its races.
func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{0.9, 1.4, 0.7, 3.1, 1.0}, 1.0},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median = %v, want %v", got, c.want)
		}
	}
}
