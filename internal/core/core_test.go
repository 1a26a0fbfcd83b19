package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"parapsp/internal/baseline"
	"parapsp/internal/gen"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/order"
	"parapsp/internal/sched"
)

var allAlgorithms = []Algorithm{SeqBasic, SeqOptimized, SeqAdaptive, ParAlg1, ParAlg2, ParAPSP}

func randomGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(30)
	m := rng.Intn(4 * n)
	undirected := rng.Intn(2) == 0
	var w gen.Weighting
	if rng.Intn(2) == 0 {
		w = gen.Weighting{Min: 1, Max: 9}
	}
	g, err := gen.ErdosRenyiGNM(n, m, undirected, seed, w)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAllAlgorithmsMatchFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, seed)
		ref := baseline.FloydWarshall(g)
		for _, alg := range allAlgorithms {
			res, err := Solve(g, alg, Options{Workers: 3})
			if err != nil {
				t.Logf("%v: %v", alg, err)
				return false
			}
			if !res.D.Equal(ref) {
				d, _ := res.D.Diff(ref, 3)
				t.Logf("%v disagrees with Floyd-Warshall on seed %d at %v", alg, seed, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleFreeGraphAllAlgorithms(t *testing.T) {
	g, err := gen.BarabasiAlbert(300, 3, 7, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.BFSAPSP(g)
	for _, alg := range allAlgorithms {
		res, err := Solve(g, alg, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !res.D.Equal(ref) {
			t.Errorf("%v disagrees with BFS on BA graph", alg)
		}
	}
}

func TestAllSchedulesProduceSameSolution(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 3, 9, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.BFSAPSP(g)
	for _, scheme := range []sched.Scheme{sched.Block, sched.StaticCyclic, sched.DynamicCyclic, sched.DynamicChunk, sched.Guided} {
		res, err := Solve(g, ParAPSP, Options{Workers: 4}.WithSchedule(scheme))
		if err != nil {
			t.Fatal(err)
		}
		if !res.D.Equal(ref) {
			t.Errorf("schedule %v produced a wrong solution", scheme)
		}
	}
}

func TestAllOrderingsProduceSameSolution(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 3, 10, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.BFSAPSP(g)
	for _, proc := range []order.Procedure{order.SeqBucket, order.ParBucketsProc, order.ParMaxProc, order.MultiListsProc} {
		res, err := Solve(g, ParAPSP, Options{Workers: 4, Ordering: proc})
		if err != nil {
			t.Fatal(err)
		}
		if !res.D.Equal(ref) {
			t.Errorf("ordering %v produced a wrong solution", proc)
		}
	}
}

func TestPaperQueueMatchesDedup(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, seed)
		a, err := Solve(g, SeqOptimized, Options{})
		if err != nil {
			return false
		}
		b, err := Solve(g, SeqOptimized, Options{PaperQueue: true})
		if err != nil {
			return false
		}
		return a.D.Equal(b.D)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDisableRowReuseStillExact(t *testing.T) {
	g, err := gen.BarabasiAlbert(150, 3, 12, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.BFSAPSP(g)
	for _, alg := range []Algorithm{SeqBasic, ParAPSP} {
		res, err := Solve(g, alg, Options{Workers: 4, DisableRowReuse: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.D.Equal(ref) {
			t.Errorf("%v without row reuse produced a wrong solution", alg)
		}
	}
}

func TestWorkerSweepExactness(t *testing.T) {
	g, err := gen.BarabasiAlbert(150, 3, 13, gen.Weighting{Min: 1, Max: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.DijkstraAPSP(g)
	for _, workers := range []int{1, 2, 3, 8, 16} {
		for _, alg := range []Algorithm{ParAlg1, ParAlg2, ParAPSP} {
			res, err := Solve(g, alg, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !res.D.Equal(ref) {
				t.Errorf("%v with %d workers produced a wrong solution", alg, workers)
			}
		}
	}
}

func TestDirectedAsymmetricDistances(t *testing.T) {
	// 0 -> 1 -> 2, no way back.
	g, err := graph.FromPairs(3, false, [][2]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range allAlgorithms {
		res, err := Solve(g, alg, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.D.At(0, 2) != 2 {
			t.Errorf("%v: D[0][2] = %d, want 2", alg, res.D.At(0, 2))
		}
		if res.D.At(2, 0) != matrix.Inf {
			t.Errorf("%v: D[2][0] = %d, want Inf", alg, res.D.At(2, 0))
		}
	}
}

func TestEmptyAndSingletonGraphs(t *testing.T) {
	for _, n := range []int{0, 1} {
		g, err := graph.FromPairs(n, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range allAlgorithms {
			res, err := Solve(g, alg, Options{Workers: 2})
			if err != nil {
				t.Fatalf("%v on n=%d: %v", alg, n, err)
			}
			if res.D.N() != n {
				t.Errorf("%v: matrix size %d, want %d", alg, res.D.N(), n)
			}
			if n == 1 && res.D.At(0, 0) != 0 {
				t.Errorf("%v: self distance %d", alg, res.D.At(0, 0))
			}
		}
	}
}

func TestResultMetadata(t *testing.T) {
	g, err := gen.BarabasiAlbert(100, 2, 3, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, ParAPSP, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != ParAPSP || res.Workers != 4 {
		t.Errorf("metadata = %v/%d", res.Algorithm, res.Workers)
	}
	if res.Order == nil || !order.IsPermutation(res.Order, g.N()) {
		t.Error("ParAPSP result order missing or invalid")
	}
	if !order.SortedByKeysDesc(g.Degrees(), res.Order) {
		t.Error("ParAPSP order not degree-descending")
	}
	if res.Total() != res.OrderingTime+res.SSSPTime {
		t.Error("Total() mismatch")
	}
	res1, err := Solve(g, SeqBasic, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Order != nil {
		t.Error("SeqBasic reported a non-identity order")
	}
}

func TestSeqAdaptiveOrderIsPermutation(t *testing.T) {
	g, err := gen.BarabasiAlbert(120, 3, 4, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, SeqAdaptive, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !order.IsPermutation(res.Order, g.N()) {
		t.Error("adaptive order is not a permutation")
	}
}

func TestMemoryBound(t *testing.T) {
	g, err := gen.BarabasiAlbert(100, 2, 5, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Solve(g, ParAPSP, Options{MaxMemBytes: 100})
	if !errors.Is(err, ErrMemory) {
		t.Errorf("memory bound not enforced: %v", err)
	}
	if _, err := Solve(g, ParAPSP, Options{MaxMemBytes: 1 << 30}); err != nil {
		t.Errorf("generous bound rejected: %v", err)
	}
}

func TestInvalidConfigurations(t *testing.T) {
	g, _ := graph.FromPairs(2, true, [][2]int32{{0, 1}})
	if _, err := Solve(g, Algorithm(42), Options{}); !errors.Is(err, ErrInvalid) {
		t.Errorf("invalid algorithm: %v", err)
	}
	if _, err := Solve(g, ParAPSP, Options{Ordering: order.Procedure(42)}); !errors.Is(err, ErrInvalid) {
		t.Errorf("invalid ordering: %v", err)
	}
}

func TestPartialRatioStillExact(t *testing.T) {
	// Algorithm 3's r < 1 orders only a prefix; the solution must be
	// unaffected because ordering is a performance hint, not semantics.
	g, err := gen.BarabasiAlbert(150, 3, 6, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.BFSAPSP(g)
	for _, r := range []float64{0.1, 0.5, 1.0} {
		res, err := Solve(g, SeqOptimized, Options{Ratio: r})
		if err != nil {
			t.Fatal(err)
		}
		if !res.D.Equal(ref) {
			t.Errorf("ratio %v produced a wrong solution", r)
		}
	}
}

func TestOrderingOnly(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 3, 8, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	src, d, err := OrderingOnly(g, order.MultiListsProc, order.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 {
		t.Error("negative duration")
	}
	if !order.SortedByKeysDesc(g.Degrees(), src) {
		t.Error("OrderingOnly produced a non-descending order")
	}
}

func TestSSSPPhase(t *testing.T) {
	g, err := gen.BarabasiAlbert(150, 3, 9, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.BFSAPSP(g)
	src := order.SequentialBucket(g.Degrees())
	for _, workers := range []int{1, 4} {
		D, _, err := SSSPPhase(g, src, workers, sched.DynamicCyclic, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !D.Equal(ref) {
			t.Errorf("SSSPPhase with %d workers wrong", workers)
		}
	}
	// nil order = identity.
	D, _, err := SSSPPhase(g, nil, 2, sched.DynamicCyclic, Options{})
	if err != nil || !D.Equal(ref) {
		t.Errorf("SSSPPhase identity order: %v", err)
	}
	// invalid order rejected.
	if _, _, err := SSSPPhase(g, []int32{0, 0}, 2, sched.DynamicCyclic, Options{}); err == nil {
		t.Error("SSSPPhase accepted a non-permutation")
	}
}

func TestAlgorithmStringsRoundTrip(t *testing.T) {
	for a := SeqBasic; a <= ParAPSP; a++ {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("round trip %v: %v %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("ParseAlgorithm accepted unknown")
	}
	if Algorithm(9).Valid() {
		t.Error("Algorithm(9) valid")
	}
	if Algorithm(9).String() != "Algorithm(9)" {
		t.Errorf("unknown String = %q", Algorithm(9).String())
	}
}

// TestRowReuseActuallyTriggers ensures the dynamic-programming path is
// exercised (not just dead code that happens to be correct): on a dense
// enough graph, the optimized order must hit the fold-in branch.
func TestRowReuseActuallyTriggers(t *testing.T) {
	g, err := gen.BarabasiAlbert(100, 4, 14, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	// Count folds via the adaptive runner, which records reuse.
	D := matrix.New(g.N())
	D.InitAPSP()
	ord := runAdaptive(g, D, Options{})
	if len(ord) != g.N() {
		t.Fatal("adaptive order wrong size")
	}
	ref := baseline.BFSAPSP(g)
	if !D.Equal(ref) {
		t.Fatal("adaptive solution wrong")
	}
}

func TestWeightedDirectedStress(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		g, err := gen.RMAT(5, 3*n, 0.45, 0.25, 0.15, 0.15, false, seed, gen.Weighting{Min: 1, Max: 20})
		if err != nil {
			return false
		}
		ref := baseline.DijkstraAPSP(g)
		res, err := Solve(g, ParAPSP, Options{Workers: 3})
		if err != nil {
			return false
		}
		return res.D.Equal(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapQueueMatchesFIFO(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, seed)
		a, err := Solve(g, ParAPSP, Options{Workers: 3})
		if err != nil {
			return false
		}
		b, err := Solve(g, ParAPSP, Options{Workers: 3, HeapQueue: true})
		if err != nil {
			return false
		}
		return a.D.Equal(b.D)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapQueueScaleFreeAndSequential(t *testing.T) {
	g, err := gen.BarabasiAlbert(250, 3, 15, gen.Weighting{Min: 1, Max: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.DijkstraAPSP(g)
	for _, alg := range []Algorithm{SeqBasic, SeqOptimized, ParAlg1, ParAlg2, ParAPSP} {
		res, err := Solve(g, alg, Options{Workers: 4, HeapQueue: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !res.D.Equal(ref) {
			t.Errorf("%v heap variant wrong", alg)
		}
	}
}

func TestHeapQueueInvalidCombos(t *testing.T) {
	g, _ := graph.FromPairs(2, true, [][2]int32{{0, 1}})
	for _, opts := range []Options{
		{HeapQueue: true, TrackPaths: true},
		{HeapQueue: true, PaperQueue: true},
	} {
		if _, err := Solve(g, ParAPSP, opts); !errors.Is(err, ErrInvalid) {
			t.Errorf("combo %+v accepted: %v", opts, err)
		}
	}
	if _, err := Solve(g, SeqAdaptive, Options{HeapQueue: true}); !errors.Is(err, ErrInvalid) {
		t.Errorf("SeqAdaptive heap accepted: %v", err)
	}
}

func TestHeapQueueNoReuse(t *testing.T) {
	g, err := gen.BarabasiAlbert(150, 3, 16, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.BFSAPSP(g)
	res, err := Solve(g, ParAPSP, Options{Workers: 2, HeapQueue: true, DisableRowReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.D.Equal(ref) {
		t.Error("heap variant without reuse wrong")
	}
}

func TestCountersCollected(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 3, 17, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, ParAPSP, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Pops == 0 || st.EdgeScans == 0 || st.Enqueues == 0 {
		t.Fatalf("counters empty: %+v", st)
	}
	if st.Folds == 0 || st.FoldUpdates == 0 {
		t.Errorf("no folds on scale-free graph: %+v", st)
	}
	if r := st.FoldRate(); r <= 0 || r >= 1 {
		t.Errorf("fold rate = %g", r)
	}
	// Disabling reuse zeroes folds and increases edge work.
	off, err := Solve(g, ParAPSP, Options{Workers: 4, DisableRowReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.Folds != 0 {
		t.Errorf("reuse-off recorded %d folds", off.Stats.Folds)
	}
	if off.Stats.EdgeScans <= st.EdgeScans {
		t.Errorf("reuse-off edge scans %d not above reuse-on %d", off.Stats.EdgeScans, st.EdgeScans)
	}
}

func TestCountersDegreeOrderBeatsIdentity(t *testing.T) {
	// The mechanism claim: degree-descending order yields a higher fold
	// rate than identity order on a (relabeled) scale-free graph.
	base, err := gen.BarabasiAlbert(400, 3, 18, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Relabel(base, 99)
	if err != nil {
		t.Fatal(err)
	}
	id, err := Solve(g, ParAlg1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	deg, err := Solve(g, ParAPSP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if deg.Stats.EdgeScans >= id.Stats.EdgeScans {
		t.Errorf("degree order edge scans %d not below identity %d",
			deg.Stats.EdgeScans, id.Stats.EdgeScans)
	}
}

func TestCountersAddAndZeroRate(t *testing.T) {
	var a Counters
	if a.FoldRate() != 0 {
		t.Error("zero counters fold rate non-zero")
	}
	a.Add(Counters{Pops: 2, Folds: 1, FoldUpdates: 3, FoldBatches: 7, FoldsSkipped: 8,
		FoldEntriesSkipped: 9, EdgeScans: 4, EdgeUpdates: 5, Enqueues: 6})
	a.Add(Counters{Pops: 2, Folds: 1})
	if a.Pops != 4 || a.Folds != 2 || a.FoldUpdates != 3 || a.EdgeScans != 4 || a.EdgeUpdates != 5 || a.Enqueues != 6 {
		t.Errorf("Add = %+v", a)
	}
	if a.FoldBatches != 7 || a.FoldsSkipped != 8 || a.FoldEntriesSkipped != 9 {
		t.Errorf("Add kernel counters = %+v", a)
	}
	if a.FoldRate() != 0.5 {
		t.Errorf("fold rate = %g", a.FoldRate())
	}
}

func TestFoldBatchingParallel(t *testing.T) {
	// The batched solver defers completed rows discovered during a
	// relaxation and drains them back-to-back; on a scale-free graph with
	// several workers racing to publish rows, drains must happen and the
	// solution must still be exact. (Run under -race this also exercises
	// the row+summary publication protocol.)
	g, err := gen.BarabasiAlbert(300, 3, 21, gen.Weighting{Min: 1, Max: 9})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.DijkstraAPSP(g)
	res, err := Solve(g, ParAPSP, Options{Workers: 4, Kernel: KernelDijkstra})
	if err != nil {
		t.Fatal(err)
	}
	if !res.D.Equal(ref) {
		t.Error("batched parallel solve differs from baseline")
	}
	st := res.Stats
	if st.FoldBatches == 0 {
		t.Errorf("no fold batches recorded: %+v", st)
	}
	if st.Folds < st.FoldBatches {
		t.Errorf("folds %d below batches %d", st.Folds, st.FoldBatches)
	}
}

func TestFoldSkipSinkRows(t *testing.T) {
	// Directed star into a sink: vertex 0 has no outgoing edges, so its
	// completed row is finite only at the diagonal. Every later search
	// reaches 0, finds it done, and must skip the fold outright (the
	// summary proves it a no-op) — and still compute exact distances.
	const k = 8
	edges := make([]graph.Edge, 0, k)
	for i := int32(1); i <= k; i++ {
		edges = append(edges, graph.Edge{From: i, To: 0, W: 1})
	}
	g, err := graph.FromEdges(k+1, false, edges)
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.BFSAPSP(g)
	res, err := Solve(g, SeqBasic, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.D.Equal(ref) {
		t.Error("solve with skipped folds differs from baseline")
	}
	st := res.Stats
	if st.FoldsSkipped < k {
		t.Errorf("FoldsSkipped = %d, want >= %d (one per source reaching the sink)", st.FoldsSkipped, k)
	}
	if st.FoldEntriesSkipped == 0 {
		t.Errorf("FoldEntriesSkipped = 0: %+v", st)
	}
}
