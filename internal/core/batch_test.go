package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"parapsp/internal/gen"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/obs"
)

// The batch differential battery: every graph family × direction ×
// weighting the batch engine dispatches on, solved by both engines at
// several worker counts, asserting byte-identical solutions. It runs
// under -race in scripts/check.sh, so it doubles as the data-race proof
// for the batch engine's disjoint-row writes.

// batteryGraph builds one named test graph. Families:
//   - power-law: heavy-tailed configuration-model graph, the paper's
//     regime and the batch engine's best case (wide frontiers).
//   - grid: 2D lattice, the adversarial narrow-frontier regime.
//   - disconnected: three islands, so most distances stay Inf and the
//     termination logic is exercised with lanes that never meet.
func batteryGraph(t testing.TB, family string, directed, weighted bool, seed int64) *graph.Graph {
	t.Helper()
	var w gen.Weighting
	if weighted {
		w = gen.Weighting{Min: 1, Max: 9}
	}
	var g *graph.Graph
	var err error
	switch family {
	case "power-law":
		g, err = gen.PowerLawConfiguration(300, 2.5, 2, !directed, seed, w)
	case "grid":
		g, err = gen.Grid2D(18, 17, !directed, seed, w)
	case "disconnected":
		// Three islands of 100 vertices, random edges inside each.
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(300, !directed)
		if weighted {
			b.ForceWeighted()
		}
		for island := 0; island < 3; island++ {
			base := int32(island * 100)
			for e := 0; e < 220; e++ {
				u := base + int32(rng.Intn(100))
				v := base + int32(rng.Intn(100))
				if u == v {
					continue
				}
				wt := matrix.Dist(1)
				if weighted {
					wt = w.Min + matrix.Dist(rng.Int63n(int64(w.Max-w.Min+1)))
				}
				if addErr := b.AddWeighted(u, v, wt); addErr != nil {
					t.Fatal(addErr)
				}
			}
		}
		g, err = b.Build()
	default:
		t.Fatalf("unknown family %q", family)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var batteryFamilies = []string{"power-law", "grid", "disconnected"}

// laneKernelFor names the lane kernel that can solve g.
func laneKernelFor(g *graph.Graph) string {
	if g.Weighted() {
		return KernelSweep
	}
	return KernelMSBFS
}

// drawSubset picks k in-range sources with duplicates on purpose, so the
// battery also covers SolveSubset's dedup in front of the batch engine.
func drawSubset(rng *rand.Rand, n, k int) []int32 {
	out := make([]int32, k)
	for i := range out {
		out[i] = int32(rng.Intn(n))
	}
	out[k-1] = out[0] // guaranteed duplicate
	return out
}

func TestBatchMatchesScalarSolve(t *testing.T) {
	seed := int64(41)
	for _, family := range batteryFamilies {
		for _, directed := range []bool{false, true} {
			for _, weighted := range []bool{false, true} {
				seed++
				g := batteryGraph(t, family, directed, weighted, seed)
				name := fmt.Sprintf("%s/directed=%v/weighted=%v", family, directed, weighted)
				t.Run(name, func(t *testing.T) {
					for _, workers := range []int{1, 2, 8} {
						scalar, err := Solve(g, ParAPSP, Options{Workers: workers, Kernel: KernelDijkstra})
						if err != nil {
							t.Fatalf("workers=%d scalar: %v", workers, err)
						}
						batched, err := Solve(g, ParAPSP, Options{Workers: workers, Kernel: laneKernelFor(g)})
						if err != nil {
							t.Fatalf("workers=%d batch: %v", workers, err)
						}
						if scalar.Engine != EngineScalar {
							t.Fatalf("scalar run reports engine %q", scalar.Engine)
						}
						if want := laneKernelFor(g); batched.Engine != want {
							t.Fatalf("batch run reports engine %q, want %q", batched.Engine, want)
						}
						if !scalar.D.Equal(batched.D) {
							diff, _ := scalar.D.Diff(batched.D, 5)
							t.Fatalf("workers=%d: matrices differ at %v", workers, diff)
						}
						if a, b := scalar.D.Checksum(), batched.D.Checksum(); a != b {
							t.Fatalf("workers=%d: checksum %#x vs %#x", workers, a, b)
						}
						if batched.Stats.Batches == 0 || batched.Stats.BatchSources != int64(g.N()) {
							t.Fatalf("workers=%d: batch counters %+v", workers, batched.Stats)
						}
					}
				})
			}
		}
	}
}

func TestBatchMatchesScalarSubset(t *testing.T) {
	seed := int64(141)
	for _, family := range batteryFamilies {
		for _, directed := range []bool{false, true} {
			for _, weighted := range []bool{false, true} {
				seed++
				g := batteryGraph(t, family, directed, weighted, seed)
				rng := rand.New(rand.NewSource(seed))
				// k > 64 forces at least two lane batches.
				sources := drawSubset(rng, g.N(), 70)
				name := fmt.Sprintf("%s/directed=%v/weighted=%v", family, directed, weighted)
				t.Run(name, func(t *testing.T) {
					for _, workers := range []int{1, 2, 8} {
						scalar, err := SolveSubset(g, sources, Options{Workers: workers, Kernel: KernelDijkstra})
						if err != nil {
							t.Fatalf("workers=%d scalar: %v", workers, err)
						}
						batched, err := SolveSubset(g, sources, Options{Workers: workers, Kernel: laneKernelFor(g)})
						if err != nil {
							t.Fatalf("workers=%d batch: %v", workers, err)
						}
						if scalar.Engine != EngineScalar || scalar.Batched() {
							t.Fatalf("scalar run reports engine %q", scalar.Engine)
						}
						if want := laneKernelFor(g); batched.Engine != want || !batched.Batched() {
							t.Fatalf("batch run reports engine %q, want %q", batched.Engine, want)
						}
						if a, b := scalar.Checksum(), batched.Checksum(); a != b {
							t.Fatalf("workers=%d: checksum %#x vs %#x", workers, a, b)
						}
						for _, s := range scalar.Sources {
							sr, br := scalar.Row(s), batched.Row(s)
							for v := range sr {
								if sr[v] != br[v] {
									t.Fatalf("workers=%d: row %d differs at %d: %d vs %d",
										workers, s, v, sr[v], br[v])
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestBatchForceRespectsLegality: forcing a lane engine means naming its
// kernel, which the scalar-only options refuse; left to the dispatch
// table, the same options keep a lane-regime solve scalar and exact.
func TestBatchForceRespectsLegality(t *testing.T) {
	g := dispatchGraph(t, "power-law", true)
	sources := dispatchSources(g.N(), 16)
	want, err := SolveSubset(g, sources, Options{Kernel: KernelDijkstra})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{PaperQueue: true},
		{HeapQueue: true},
		{DisableRowReuse: true},
	} {
		forced := opts
		forced.Kernel = KernelSweep
		if _, err := SolveSubset(g, sources, forced); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%+v: got %v, want ErrInvalid", forced, err)
		}
		res, err := SolveSubset(g, sources, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if res.Engine != EngineScalar {
			t.Fatalf("%+v: engine %q, want scalar", opts, res.Engine)
		}
		if res.Checksum() != want.Checksum() {
			t.Fatalf("%+v: wrong solution", opts)
		}
	}
	small := batteryGraph(t, "power-law", false, true, 9)
	if _, err := Solve(small, SeqAdaptive, Options{Kernel: KernelSweep}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("SeqAdaptive with sweep: got %v, want ErrInvalid", err)
	}
	if res, err := Solve(small, SeqAdaptive, Options{}); err != nil || res.Engine != EngineScalar {
		t.Fatalf("SeqAdaptive: engine %q err %v, want scalar", res.Engine, err)
	}
}

// TestBatchScratchDropsRows: a lane solve returns its scratch to the pool
// without the row pointers into its destination, so the pool cannot keep
// the previous solve's matrix (or subset row block) reachable.
func TestBatchScratchDropsRows(t *testing.T) {
	g := batteryGraph(t, "power-law", false, true, 17)
	n := g.N()
	D := matrix.New(n)
	D.InitAPSP()
	rt := &Runtime{G: g, Workers: 1, Sources: identitySources(n), Dest: rowDest{m: D}, Flags: newFlags(n)}
	run := kernelRegistry[KernelSweep].Bind(rt).(*laneRun)
	run.Run(0, 0, batchLaneWidth)
	sc := run.scratches[0]
	run.Finish()
	for i, row := range sc.rows[:cap(sc.rows)] {
		if row != nil {
			t.Fatalf("pooled scratch still points at destination row %d", i)
		}
	}
}

// TestBatchObs checks the instrumented batch solve: batch counters reach
// the metrics registry and batch-sweep spans reach the worker lanes.
func TestBatchObs(t *testing.T) {
	g := batteryGraph(t, "power-law", false, false, 11)
	rec := obs.New(2)
	res, err := Solve(g, ParAPSP, Options{Workers: 2, Kernel: KernelMSBFS, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	rec.Stop()
	snap := rec.Metrics().Snapshot()
	if snap["core.batch.batches"] != res.Stats.Batches || res.Stats.Batches == 0 {
		t.Fatalf("core.batch.batches = %d, stats say %d", snap["core.batch.batches"], res.Stats.Batches)
	}
	if snap["core.batch.sources"] != int64(g.N()) {
		t.Fatalf("core.batch.sources = %d, want %d", snap["core.batch.sources"], g.N())
	}
	sweeps := 0
	for _, e := range rec.Events() {
		if e.Phase == obs.PhaseBatchSweep {
			sweeps++
			if e.Arg <= 0 {
				t.Fatalf("batch-sweep span with %d sweeps", e.Arg)
			}
		}
	}
	if int64(sweeps) != res.Stats.Batches {
		t.Fatalf("%d batch-sweep spans, %d batches", sweeps, res.Stats.Batches)
	}
}

// TestBatchSteadyStateAllocs pins the pooled-arena claim: once a scratch
// is warm, running a full 64-source batch allocates nothing, on both the
// unweighted (MS-BFS) and weighted (shared-sweep) engines.
func TestBatchSteadyStateAllocs(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		var w gen.Weighting
		if weighted {
			w = gen.Weighting{Min: 1, Max: 9}
		}
		g, err := gen.PowerLawConfiguration(2000, 2.5, 2, true, 13, w)
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		sources := make([]int32, batchLaneWidth)
		for i := range sources {
			sources[i] = int32(i * 7 % n)
		}
		rows := make([][]matrix.Dist, len(sources))
		for i := range rows {
			rows[i] = make([]matrix.Dist, n)
		}
		var st Counters
		sc := getBatchScratch(n)
		run := func() {
			for i := range rows {
				for v := range rows[i] {
					rows[i][v] = matrix.Inf
				}
			}
			if weighted {
				sc.sweepSSSP(g, sources, rows, &st)
			} else {
				sc.msbfs(g, sources, rows, &st)
			}
		}
		run() // warm the arena (sweep's lane-major block grows on first use)
		if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
			t.Errorf("weighted=%v: %v allocs per warm batch, want 0", weighted, allocs)
		}
		putBatchScratch(sc)
	}
}

// TestScratchPoolReuse pins the scalar-side satellite: SolveSubset returns
// its per-worker scratch to the pool, and a pooled scratch comes back with
// clean stats and queue state.
func TestScratchPoolReuse(t *testing.T) {
	g := batteryGraph(t, "power-law", false, true, 15)
	if _, err := SolveSubset(g, []int32{1, 2, 3}, Options{Kernel: KernelDijkstra}); err != nil {
		t.Fatal(err)
	}
	sc := getScratch(g.N())
	if sc.stats != (Counters{}) {
		t.Fatalf("pooled scratch has dirty stats: %+v", sc.stats)
	}
	if len(sc.queue) != 0 {
		t.Fatalf("pooled scratch has %d queued entries", len(sc.queue))
	}
	for v, in := range sc.inQueue {
		if in {
			t.Fatalf("pooled scratch has inQueue[%d] set", v)
		}
	}
	putScratch(sc)
}
