package core

import (
	"testing"

	"parapsp/internal/baseline"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// TestDeltaWidthRegimes pins the bucket-width heuristic of the stepping
// kernel in both regimes: sparse graphs get the mean edge weight, dense
// graphs (mean degree ≥ denseDeltaDegree) get mean·(n/m), and the result
// is clamped to a positive floor when either rule truncates to zero.
func TestDeltaWidthRegimes(t *testing.T) {
	// Sparse ring, all weights 6: Δ = mean = 6.
	sparse := graph.NewBuilder(32, false)
	for v := int32(0); v < 32; v++ {
		if err := sparse.AddWeighted(v, (v+1)%32, 6); err != nil {
			t.Fatal(err)
		}
	}
	g, err := sparse.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := deltaWidth(g); got != 6 {
		t.Errorf("sparse: deltaWidth = %d, want mean weight 6", got)
	}

	// Dense undirected clique (n=40, mean degree 39, m=1560 arcs), all
	// weights 100: Δ = mean·(n/m) = 100·40/1560 = 2, not the mean.
	dense := graph.NewBuilder(40, true)
	for u := int32(0); u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			if err := dense.AddWeighted(u, v, 100); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err = dense.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := deltaWidth(g); got != 2 {
		t.Errorf("dense: deltaWidth = %d, want 100*40/1560 = 2", got)
	}

	// Same dense graph with minimal weights: the dense rule yields
	// 1·40/1560 = 0, which must clamp to the positive floor (Δ = 0 would
	// be an infinite bucket index).
	floor := graph.NewBuilder(40, true).ForceWeighted()
	for u := int32(0); u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			if err := floor.AddWeighted(u, v, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err = floor.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := deltaWidth(g); got != 1 {
		t.Errorf("floor: deltaWidth = %d, want clamp to 1", got)
	}

	// An edgeless graph must not divide by zero.
	empty, err := graph.NewBuilder(4, false).ForceWeighted().Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := deltaWidth(empty); got != 1 {
		t.Errorf("edgeless: deltaWidth = %d, want 1", got)
	}
}

// kernelSteadyAllocs measures the steady-state allocations of one solved
// source for a bound kernel: Bind once, warm a prefix of sources (growing
// the pooled scratch and publishing rows so the fold path is live), then
// repeatedly re-solve one source with its flag reset (the kernel begins
// its own row). The warm-up call builds the fold views of the rows it
// folds; the graph is the connected grid, so those rows are dense and no
// view carries a finite-index list.
func kernelSteadyAllocs(t *testing.T, name string) float64 {
	t.Helper()
	g := batteryGraph(t, "grid", false, true, 5)
	n := g.N()
	D := matrix.NewZero(n)
	f := newFlags(n)
	sources := make([]int32, n)
	for i := range sources {
		sources[i] = int32(i)
	}
	kern, err := LookupKernel(name)
	if err != nil {
		t.Fatal(err)
	}
	rt := &Runtime{
		G:       g,
		Opts:    Options{Kernel: name},
		Workers: 1,
		Sources: sources,
		Dest:    rowDest{m: D},
		Flags:   f,
	}
	run := kern.Bind(rt)
	warm := 8
	run.Run(0, 0, warm)
	s := warm
	allocs := testing.AllocsPerRun(20, func() {
		f.v[s].Store(0)
		run.Run(0, s, s+1)
	})
	run.Finish()
	return allocs
}

// TestSteppingKernelZeroAllocs pins the pooled kernels at zero
// steady-state allocations per solved source — the lazy stepping kernel's
// design requirement, with the paper's FIFO kernel held to the same bar.
func TestSteppingKernelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, name := range []string{KernelDijkstra, KernelDeltaStar} {
		if got := kernelSteadyAllocs(t, name); got != 0 {
			t.Errorf("kernel %s: %.1f allocs per solved source, want 0", name, got)
		}
	}
}

// TestDeltaStarDropsFoldLoweredEntry: a hub's fold lowers a queued vertex
// whose row is done, and the queued entry, pushed at the higher distance,
// must be dropped rather than folded a second time. The source 0 reaches
// hub 1 (weight 1) and vertex 2 (weight 3); the hub reaches 2 (weight 1),
// and 2 reaches 3. Δ is the mean weight, 6/4 = 1, so 2's entry waits in
// bucket 3 while the hub's fold in bucket 1 sets row[2] = 2. Rows 1 and 2
// are published beforehand, as in TestFoldViewFirstFoldRace, and one
// worker solves 0.
func TestDeltaStarDropsFoldLoweredEntry(t *testing.T) {
	g, err := graph.FromEdges(4, false, []graph.Edge{
		{From: 0, To: 1, W: 1}, {From: 0, To: 2, W: 3}, {From: 1, To: 2, W: 1}, {From: 2, To: 3, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := deltaWidth(g); d != 1 {
		t.Fatalf("deltaWidth = %d, want 1", d)
	}
	n := g.N()
	D := matrix.NewZero(n)
	f := newFlags(n)
	pre := &Runtime{G: g, Opts: Options{DisableRowReuse: true}, Workers: 1,
		Sources: []int32{1, 2}, Dest: rowDest{m: D}, Flags: f}
	preRun := kernelRegistry[KernelDeltaStar].Bind(pre)
	preRun.Run(0, 0, 2)
	preRun.Finish()

	rt := &Runtime{G: g, Workers: 1, Sources: []int32{0}, Dest: rowDest{m: D}, Flags: f}
	run := kernelRegistry[KernelDeltaStar].Bind(rt)
	run.Run(0, 0, 1)
	st := run.Finish()

	want := make([]matrix.Dist, n)
	for s := 0; s < 3; s++ {
		baseline.DijkstraSSSP(g, int32(s), want)
		for v, d := range D.Row(s) {
			if d != want[v] {
				t.Fatalf("D[%d][%d] = %d, want %d", s, v, d, want[v])
			}
		}
	}
	if st.Folds != 1 {
		t.Errorf("%d folds, want 1: only the hub's row is folded", st.Folds)
	}
}
