package bench

import (
	"testing"
	"time"

	"parapsp/internal/core"
	"parapsp/internal/datasets"
	"parapsp/internal/order"
)

// Shape tests: the paper's qualitative claims, asserted on deterministic
// work counters wherever possible (wall-clock assertions are flaky on
// shared machines; counters are not).

func TestShapeDegreeOrderReducesWork(t *testing.T) {
	// Section 2.2 claim, mechanically: the descending-degree order makes
	// completed hub rows available early, so later searches fold them in
	// and scan far fewer edges than the identity order.
	g, _, err := datasets.Synthesize("WordNet", 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the scalar engine: these counters measure the fold/reuse
	// mechanism, which the multi-source batch engine replaces wholesale.
	id, err := core.Solve(g, core.ParAlg1, core.Options{Kernel: core.KernelDijkstra})
	if err != nil {
		t.Fatal(err)
	}
	deg, err := core.Solve(g, core.ParAPSP, core.Options{Kernel: core.KernelDijkstra})
	if err != nil {
		t.Fatal(err)
	}
	if deg.Stats.EdgeScans*12 > id.Stats.EdgeScans*10 {
		t.Errorf("degree order edge scans %d vs identity %d: expected >= 1.2x reduction",
			deg.Stats.EdgeScans, id.Stats.EdgeScans)
	}
	// The mechanism is *early* folding: hub rows complete first, so each
	// later search terminates after far fewer pops — the fold rate per
	// pop stays similar, but the total pop count collapses.
	if deg.Stats.Pops*2 > id.Stats.Pops {
		t.Errorf("degree order pops %d not <= half of identity %d",
			deg.Stats.Pops, id.Stats.Pops)
	}
}

func TestShapeRowReuseIsTheMechanism(t *testing.T) {
	// Section 5.4 conjecture: the dynamic-programming reuse carries the
	// performance. Disabling it multiplies the edge work.
	g, _, err := datasets.Synthesize("WordNet", 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	on, err := core.Solve(g, core.ParAPSP, core.Options{Kernel: core.KernelDijkstra})
	if err != nil {
		t.Fatal(err)
	}
	off, err := core.Solve(g, core.ParAPSP, core.Options{DisableRowReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.EdgeScans < 2*on.Stats.EdgeScans {
		t.Errorf("reuse-off edge scans %d not at least 2x reuse-on %d",
			off.Stats.EdgeScans, on.Stats.EdgeScans)
	}
}

func TestShapeSelectionOrderingDominatesOrderingTime(t *testing.T) {
	// Table 1's contrast: the O(n^2) selection sort is orders of
	// magnitude slower than the bucket family. Wall-clock, but with a
	// 10x margin over an effect measured at >100x.
	degrees, _, err := datasets.SynthesizeDegrees("WordNet", 0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	selStart := time.Now()
	order.SelectionSort(degrees, 1.0)
	sel := time.Since(selStart)
	mlStart := time.Now()
	order.MultiLists(degrees, 4, 0.1)
	ml := time.Since(mlStart)
	if sel < 10*ml {
		t.Errorf("selection %v not >= 10x MultiLists %v", sel, ml)
	}
}

func TestShapeParBucketsApproximationOnRealDegrees(t *testing.T) {
	// Section 4.2: the fixed-width bucketing is only approximate on a
	// power-law degree array, while ParMax/MultiLists are exact.
	degrees, _, err := datasets.SynthesizeDegrees("WordNet", 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	approx := order.ParBuckets(degrees, 4, 100)
	if order.SortedByKeysDesc(degrees, approx) {
		t.Error("ParBuckets produced an exact order on power-law degrees; the Figure 5 contrast would vanish")
	}
	if !order.SortedByKeysDesc(degrees, order.ParMax(degrees, 4, 0.01)) {
		t.Error("ParMax not exact")
	}
	if !order.SortedByKeysDesc(degrees, order.MultiLists(degrees, 4, 0.1)) {
		t.Error("MultiLists not exact")
	}
}

func TestShapeOptimizedBeatsBasicSequentially(t *testing.T) {
	// Section 5.2: the optimized algorithm is 2-4x faster than basic.
	// Asserted on deterministic work (pops + edge scans), 1 worker.
	g, _, err := datasets.Synthesize("WordNet", 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	basic, err := core.Solve(g, core.SeqBasic, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.Solve(g, core.SeqOptimized, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.EdgeScans*2 > basic.Stats.EdgeScans {
		t.Errorf("optimized edge scans %d not <= half of basic %d",
			opt.Stats.EdgeScans, basic.Stats.EdgeScans)
	}
}
