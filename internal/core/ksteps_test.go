package core

import (
	"testing"

	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// TestDeltaWidthRegimes pins the bucket-width heuristic of the stepping
// kernels in both regimes: sparse graphs get the mean edge weight, dense
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
// repeatedly re-solve one source with its row and flag reset. The graph is
// the connected grid, so published rows are dense and SummarizeRow never
// allocates a finite-index list.
func kernelSteadyAllocs(t *testing.T, name string) float64 {
	t.Helper()
	g := batteryGraph(t, "grid", false, true, 5)
	n := g.N()
	D := matrix.New(n)
	D.InitAPSP()
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
		row := D.Row(s)
		for i := range row {
			row[i] = matrix.Inf
		}
		row[s] = 0
		f.v[s].Store(0)
		run.Run(0, s, s+1)
	})
	run.Finish()
	return allocs
}

// TestSteppingKernelZeroAllocs pins the pooled kernels at zero
// steady-state allocations per solved source — the lazy stepping kernels'
// design requirement, with the eager kernels held to the same bar.
func TestSteppingKernelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, name := range []string{KernelDijkstra, KernelDelta, KernelDeltaStar, KernelRho} {
		if got := kernelSteadyAllocs(t, name); got != 0 {
			t.Errorf("kernel %s: %.1f allocs per solved source, want 0", name, got)
		}
	}
}

// TestKernelParDijParallelRelax forces the parallel relaxation path (the
// battery graphs rarely reach the production grain) and checks pardij
// stays checksum-identical to the baseline through it. Running under
// -race (the kernel battery pattern matches this name) makes it the
// data-race proof for the candidate-buffer fan-out.
func TestKernelParDijParallelRelax(t *testing.T) {
	old := pardijGrain
	pardijGrain = 4
	defer func() { pardijGrain = old }()
	for _, weighted := range []bool{false, true} {
		g := batteryGraph(t, "power-law", false, weighted, 9)
		base, err := Solve(g, ParAPSP, Options{Workers: 2, Kernel: KernelDijkstra})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(g, ParAPSP, Options{Workers: 8, Kernel: KernelParDij})
		if err != nil {
			t.Fatal(err)
		}
		if res.D.Checksum() != base.D.Checksum() {
			t.Errorf("weighted=%v: pardij parallel relax diverged from baseline", weighted)
		}
		// The reuse ablation exercises the pure phased Dijkstra (no folds).
		res, err = Solve(g, ParAPSP, Options{Workers: 8, Kernel: KernelParDij, DisableRowReuse: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.D.Checksum() != base.D.Checksum() {
			t.Errorf("weighted=%v: pardij without reuse diverged from baseline", weighted)
		}
	}
}

// TestSelectKth pins the quickselect against a sort-based oracle.
func TestSelectKth(t *testing.T) {
	vals := []matrix.Dist{9, 3, 7, 3, 1, 8, 2, 7, 5, 4, 6, 3}
	sorted := []matrix.Dist{1, 2, 3, 3, 3, 4, 5, 6, 7, 7, 8, 9}
	for k := 1; k <= len(vals); k++ {
		ds := append([]matrix.Dist(nil), vals...)
		if got := selectKth(ds, k); got != sorted[k-1] {
			t.Errorf("selectKth(k=%d) = %d, want %d", k, got, sorted[k-1])
		}
	}
}
