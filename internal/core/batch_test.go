package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"parapsp/internal/baseline"
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
	D := matrix.NewZero(n)
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
				rows[i][sources[i]] = 0
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

// FuzzBatchMSBFS runs one msbfs batch on a small graph and holds every
// row against a plain BFS (Inf where a vertex is unreachable). The graph
// has 1–96 vertices, directed or undirected, with arcs decoded from byte
// pairs; a vertex no arc names is isolated. Sources are decoded from
// bytes, deduplicated and cut at one lane batch. Besides the rows it pins
// the counters' meaning (BatchScattered is the number of finite
// off-diagonal entries, the sweep count the deepest level) and the scratch
// invariant (visit and next all zero after the run).
func FuzzBatchMSBFS(f *testing.F) {
	// Two adjacent sources in one batch.
	f.Add(uint8(6), false, []byte{0, 1, 1, 2, 2, 3, 3, 4}, []byte{1, 2})
	// A source with no out-arcs (3), and an isolated one (5).
	f.Add(uint8(6), true, []byte{0, 1, 1, 2, 2, 3, 4, 0}, []byte{3, 0, 5, 4})
	// A full 64-lane batch on a 96-vertex ring with chords.
	var ring, lanes []byte
	for v := 0; v < 96; v++ {
		ring = append(ring, byte(v), byte((v+1)%96))
		if v%7 == 0 {
			ring = append(ring, byte(v), byte((v*5)%96))
		}
	}
	for i := 0; i < batchLaneWidth; i++ {
		lanes = append(lanes, byte(i*3))
	}
	f.Add(uint8(96), false, ring, lanes)
	f.Add(uint8(96), true, ring, lanes)
	f.Fuzz(func(t *testing.T, nRaw uint8, directed bool, arcs, srcBytes []byte) {
		n := 1 + int(nRaw)%96
		b := graph.NewBuilder(n, !directed)
		for i := 0; i+1 < len(arcs); i += 2 {
			if err := b.AddEdge(int32(int(arcs[i])%n), int32(int(arcs[i+1])%n)); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		picked := make([]bool, n)
		var sources []int32
		for _, c := range srcBytes {
			if v := int(c) % n; !picked[v] && len(sources) < batchLaneWidth {
				picked[v] = true
				sources = append(sources, int32(v))
			}
		}
		if len(sources) == 0 {
			sources = []int32{0}
		}
		rows := make([][]matrix.Dist, len(sources))
		for i, s := range sources {
			rows[i] = make([]matrix.Dist, n)
			matrix.FillDist(rows[i], matrix.Inf)
			rows[i][s] = 0
		}
		sc := getBatchScratch(n)
		defer putBatchScratch(sc)
		var st Counters
		sweeps := sc.msbfs(g, sources, rows, &st)

		want := make([]matrix.Dist, n)
		var finite int64
		var deepest matrix.Dist
		for i, s := range sources {
			baseline.BFSSSSP(g, s, want)
			for v, d := range want {
				if rows[i][v] != d {
					t.Fatalf("source %d (lane %d): dist to %d = %d, BFS %d", s, i, v, rows[i][v], d)
				}
				if d != matrix.Inf && d != 0 {
					finite++
					deepest = max(deepest, d)
				}
			}
		}
		if st.BatchScattered != finite {
			t.Fatalf("BatchScattered = %d, want %d finite off-diagonal entries", st.BatchScattered, finite)
		}
		if sweeps != int64(deepest) {
			t.Fatalf("%d sweeps, want %d (the deepest level)", sweeps, deepest)
		}
		for v := range sc.visit {
			if sc.visit[v] != 0 || sc.next[v] != 0 {
				t.Fatalf("scratch word %d left dirty: visit %x next %x", v, sc.visit[v], sc.next[v])
			}
		}
	})
}

// TestBatchMSBFSBeyondOneBatch solves more than one lane batch, through
// the default dispatch (msbfs), on an unweighted path whose searches need
// more than 255 levels and on a directed graph with unreachable pairs:
// full and subset solves at 1, 2 and 8 workers, every checksum equal to
// the Dijkstra reference's.
func TestBatchMSBFSBeyondOneBatch(t *testing.T) {
	const n = 1100
	var path, dag [][2]int32
	for v := int32(0); v+1 < n; v++ {
		path = append(path, [2]int32{v, v + 1})
		// The DAG runs forward only, in chains of 50 with skips, so every
		// backward pair and most pairs across chains are unreachable.
		if v%50 != 49 {
			dag = append(dag, [2]int32{v, v + 1})
		}
		if v%3 == 0 && v+7 < n {
			dag = append(dag, [2]int32{v, v + 7})
		}
	}
	graphs := map[string]*graph.Graph{}
	var err error
	if graphs["path"], err = graph.FromPairs(n, true, path); err != nil {
		t.Fatal(err)
	}
	if graphs["dag"], err = graph.FromPairs(n, false, dag); err != nil {
		t.Fatal(err)
	}
	var subset []int32 // scattered, non-adjacent, more than one batch
	for v := int32(0); v < n; v += 7 {
		subset = append(subset, v)
	}
	for name, g := range graphs {
		ref := baseline.DijkstraAPSP(g)
		if name == "path" && ref.At(0, n-1) <= 255 {
			t.Fatalf("path depth %d does not exceed 255 levels", ref.At(0, n-1))
		}
		if name == "dag" && ref.CountFinite() == n*n {
			t.Fatal("dag has no unreachable pair")
		}
		for _, workers := range []int{1, 2, 8} {
			opts := Options{Workers: workers}
			res, err := Solve(g, ParAPSP, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Kernel != KernelMSBFS || res.Stats.Batches < 2 {
				t.Fatalf("%s workers=%d: kernel %q, %d batches", name, workers, res.Kernel, res.Stats.Batches)
			}
			if a, b := res.D.Checksum(), ref.Checksum(); a != b {
				diff, _ := res.D.Diff(ref, 5)
				t.Fatalf("%s workers=%d: full checksum %#x, reference %#x (first diffs %v)", name, workers, a, b, diff)
			}
			sub, err := SolveSubset(g, subset, opts)
			if err != nil {
				t.Fatal(err)
			}
			if sub.Kernel != KernelMSBFS {
				t.Fatalf("%s workers=%d: subset kernel %q", name, workers, sub.Kernel)
			}
			var want []matrix.Dist
			for _, s := range sub.Sources {
				want = append(want, ref.Row(int(s))...)
			}
			if a, b := sub.Checksum(), matrix.ChecksumDists(want); a != b {
				t.Fatalf("%s workers=%d: subset checksum %#x, reference %#x", name, workers, a, b)
			}
		}
	}
}

// msbfsOver runs the msbfs engine over consecutive lane batches of order
// and returns its edge scans and the rows it wrote.
func msbfsOver(g *graph.Graph, order []int32) (int64, *matrix.Matrix) {
	D := matrix.NewZero(g.N())
	dest := rowDest{m: D}
	sc := getBatchScratch(g.N())
	defer putBatchScratch(sc)
	var st Counters
	for lo := 0; lo < len(order); lo += batchLaneWidth {
		batch := order[lo:min(lo+batchLaneWidth, len(order))]
		rows := sc.rows[:0]
		for _, s := range batch {
			rows = append(rows, dest.begin(s))
		}
		sc.rows = rows
		sc.msbfs(g, batch, rows, &st)
	}
	return st.EdgeScans, D
}

// TestBatchGroupSources pins the lane kernels' regrouping: it is a
// permutation of the sources on full orders, scattered subsets and
// disconnected graphs; a solve of one batch or less keeps its order and
// allocates nothing; and on a mesh, batches of neighbouring sources scan
// at most half the edges that consecutive chunks of the same order do.
func TestBatchGroupSources(t *testing.T) {
	grid, err := gen.Grid2D(44, 44, true, 1, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := multiListsOrdering(grid, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var scattered []int32 // no two adjacent: every third row and column
	for r := 0; r < 44; r += 3 {
		for c := 0; c < 44; c += 3 {
			scattered = append(scattered, int32(r*44+c))
		}
	}
	islands := batteryGraph(t, "disconnected", true, false, 7)
	rng := rand.New(rand.NewSource(7))
	var islandSubset []int32
	for _, v := range rng.Perm(islands.N())[:100] {
		islandSubset = append(islandSubset, int32(v))
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		sources []int32
	}{
		{"grid/full", grid, ordered},
		{"grid/scattered", grid, scattered},
		{"islands/full", islands, identitySources(islands.N())},
		{"islands/subset", islands, islandSubset},
	} {
		got := groupSources(tc.g, tc.sources)
		a, b := slices.Clone(got), slices.Clone(tc.sources)
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("%s: regrouped order is not a permutation of the sources", tc.name)
		}
		if tc.name == "grid/scattered" && !slices.Equal(got, tc.sources) {
			// No source neighbours another, so every batch is seeded in order.
			t.Fatalf("%s: non-adjacent sources were reordered", tc.name)
		}
	}

	small := ordered[:batchLaneWidth]
	if got := groupSources(grid, small); len(got) != len(small) || &got[0] != &small[0] {
		t.Fatal("a one-batch solve was regrouped")
	}
	if allocs := testing.AllocsPerRun(10, func() { groupSources(grid, small) }); allocs != 0 {
		t.Fatalf("a one-batch solve allocates %v times", allocs)
	}

	chunked, want := msbfsOver(grid, ordered)
	grouped, got := msbfsOver(grid, groupSources(grid, ordered))
	if !got.Equal(want) {
		t.Fatal("regrouped batches wrote different rows")
	}
	if 2*grouped > chunked {
		t.Fatalf("regrouped batches scan %d edges, consecutive chunks %d: want at most half", grouped, chunked)
	}
	t.Logf("grid edge scans: consecutive chunks %d, regrouped %d", chunked, grouped)
}
