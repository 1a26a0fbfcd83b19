package core

import (
	"math/rand"
	"sync"
	"testing"

	"parapsp/internal/baseline"
	"parapsp/internal/graph"
	"parapsp/internal/kernel"
	"parapsp/internal/matrix"
	"parapsp/internal/sched"
)

// infRow returns a length-n row of Inf.
func infRow(n int) []matrix.Dist {
	row := make([]matrix.Dist, n)
	matrix.FillDist(row, matrix.Inf)
	return row
}

// foldPath publishes rt as row r of a matrix, folds it at offset 0 into
// an all-Inf row through foldRow, and names the path foldRow took — skip,
// index or sweep — from the counters it left. A path that folded must
// leave exactly the reference fold; a skipped one must leave the row
// untouched.
func foldPath(t *testing.T, r int32, rt []matrix.Dist) (*foldView, string) {
	t.Helper()
	n := len(rt)
	m := matrix.NewZero(n)
	copy(m.Row(int(r)), rt)
	f := newFlags(n)
	f.set(r)
	got := infRow(n)
	var st Counters
	foldRow(rowDest{m: m}, f, got, r, 0, &st)
	v := f.views[r].Load()
	if v == nil {
		t.Fatal("foldRow built no view")
	}
	want := infRow(n)
	path := "skip"
	switch {
	case st.FoldsSkipped == 1:
		if st.FoldEntriesSkipped != int64(n) {
			t.Fatalf("skip counted %d skipped entries, want %d", st.FoldEntriesSkipped, n)
		}
	case st.FoldEntriesSkipped == int64(n-(v.hi-v.lo)):
		path = "sweep"
		kernel.FoldRowRef(want, rt, 0)
	case st.FoldEntriesSkipped == int64(n-len(v.idx)):
		path = "index"
		kernel.FoldRowRef(want, rt, 0)
	default:
		t.Fatalf("counters %+v match no fold path of view %+v", st, *v)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s fold: row[%d] = %d, want %d", path, j, got[j], want[j])
		}
	}
	return v, path
}

func TestFoldViewDense(t *testing.T) {
	v, path := foldPath(t, 0, []matrix.Dist{0, 1, 2, 3, 4, 5})
	if v.lo != 0 || v.hi != 6 || v.idx != nil || path != "sweep" {
		t.Fatalf("dense view = %+v, %s", *v, path)
	}
	// A short row: 2 <= span/8 never holds below a span of 16, so its
	// index list is never built.
	v, path = foldPath(t, 0, []matrix.Dist{0, matrix.Inf, matrix.Inf, 9})
	if v.lo != 0 || v.hi != 4 || v.idx != nil || path != "sweep" {
		t.Fatalf("short view = %+v, %s", *v, path)
	}
}

func TestFoldViewSparseBuildsIndex(t *testing.T) {
	// 2 finite entries spread over a span of 64: 2 <= 64/8, so the index
	// list must be built.
	row := infRow(100)
	row[10], row[73] = 5, 7
	v, path := foldPath(t, 0, row)
	if v.lo != 10 || v.hi != 74 || path != "index" {
		t.Fatalf("sparse view = %+v, %s", *v, path)
	}
	if len(v.idx) != 2 || v.idx[0] != 10 || v.idx[1] != 73 {
		t.Fatalf("finite index = %v", v.idx)
	}

	// The threshold: span 64 holding exactly 64/8 finite entries is
	// indexed, one more is swept — the count stops at span/8+1.
	for _, finite := range []int{8, 9} {
		row := infRow(64)
		for k := 0; k < finite; k++ {
			row[k*63/(finite-1)] = matrix.Dist(k + 1)
		}
		v, path := foldPath(t, 0, row)
		want := "index"
		if finite > 8 {
			want = "sweep"
		}
		if v.lo != 0 || v.hi != 64 || path != want || (path == "index") != (len(v.idx) == finite) {
			t.Fatalf("%d finite in a span of 64: view = %+v, %s, want %s", finite, *v, path, want)
		}
	}
}

func TestFoldViewAllInf(t *testing.T) {
	v, path := foldPath(t, 0, infRow(5))
	if v.lo != 0 || v.hi != 0 || v.idx != nil || path != "skip" {
		t.Fatalf("all-Inf view = %+v, %s", *v, path)
	}
	// Only the diagonal: a span of one entry, skipped (hi-lo <= 1).
	row := infRow(5)
	row[3] = 0
	v, path = foldPath(t, 3, row)
	if v.lo != 3 || v.hi != 4 || v.idx != nil || path != "skip" {
		t.Fatalf("diagonal-only view = %+v, %s", *v, path)
	}
}

// TestFoldViewOfWrittenRow: the solver's pattern — a search writes its
// row through the matrix's Row slice, publishes it, and the first fold
// builds the view from those contents. Later calls return the same view.
func TestFoldViewOfWrittenRow(t *testing.T) {
	m := matrix.NewZero(50)
	row := m.Row(7)
	matrix.FillDist(row, matrix.Inf)
	row[7] = 0
	for j := 30; j < 40; j++ {
		row[j] = matrix.Dist(j)
	}
	f := newFlags(50)
	v := f.view(7, m.Row(7))
	// 11 finite entries in a span of 33: more than 33/8, so swept.
	if v.lo != 7 || v.hi != 40 || v.idx != nil {
		t.Fatalf("view = %+v", *v)
	}
	if again := f.view(7, m.Row(7)); again != v {
		t.Fatal("second view call built a new view")
	}
	if fv, path := foldPath(t, 7, m.Row(7)); fv.lo != v.lo || fv.hi != v.hi || fv.idx != nil || path != "sweep" {
		t.Fatalf("fold of the written row: view %+v, %s, want a sweep of [7, 40)", *fv, path)
	}
}

// hubGraph builds the fold-view race graph: hubs 0..3 are the only
// vertices leaves reach, only leaves reach hubs, and no edge enters a
// leaf, so every leaf search folds each hub row once and no search ever
// folds a leaf row. Hub 0 reaches
// every spoke (a dense row), hub 1 half of them, hub 2 two far-apart
// spokes (a sparse row, gathered through its index list), and hub 3 none
// (only its diagonal is finite, so its fold is skipped).
func hubGraph(t *testing.T, leaves, spokes int) (g *graph.Graph, hubs, leafIDs []int32) {
	t.Helper()
	const nHubs = 4
	n := nHubs + leaves + spokes
	rng := rand.New(rand.NewSource(3))
	w := func() matrix.Dist { return 1 + matrix.Dist(rng.Intn(9)) }
	var edges []graph.Edge
	spoke := func(i int) int32 { return int32(nHubs + leaves + i) }
	for i := 0; i < spokes; i++ {
		edges = append(edges, graph.Edge{From: 0, To: spoke(i), W: w()})
		if i%2 == 0 {
			edges = append(edges, graph.Edge{From: 1, To: spoke(i), W: w()})
		}
	}
	edges = append(edges,
		graph.Edge{From: 2, To: spoke(0), W: w()},
		graph.Edge{From: 2, To: spoke(spokes - 1), W: w()},
	)
	for h := int32(0); h < nHubs; h++ {
		hubs = append(hubs, h)
	}
	for i := 0; i < leaves; i++ {
		l := int32(nHubs + i)
		leafIDs = append(leafIDs, l)
		for _, h := range hubs {
			edges = append(edges, graph.Edge{From: l, To: h, W: w()})
		}
	}
	g, err := graph.FromEdges(n, false, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, hubs, leafIDs
}

// TestFoldViewFirstFoldRace has 8 workers fold the same hub rows for the
// first time at once, on every scalar kernel that folds: each search may
// build a hub's view, one compare-and-swap wins, and every search folds
// through a view of the same final row. Run under -race (scripts/check.sh
// does, ten times) it also checks that building a view from a published
// row is ordered after the row's writes. The rows must equal Dijkstra's,
// and views must exist for exactly the folded rows — the hubs — and for
// no row a lane-kernel solve publishes.
func TestFoldViewFirstFoldRace(t *testing.T) {
	const workers = 8
	g, hubs, leaves := hubGraph(t, workers, 200)
	n := g.N()
	want := make([]matrix.Dist, n)
	for _, name := range []string{KernelDijkstra, KernelDeltaStar, KernelHeap} {
		D := matrix.NewZero(n)
		f := newFlags(n)
		// Publish the hub rows without folding, so no view exists yet.
		hubRT := &Runtime{G: g, Opts: Options{DisableRowReuse: true}, Workers: 1,
			Sources: hubs, Dest: rowDest{m: D}, Flags: f}
		hubRun := kernelRegistry[name].Bind(hubRT)
		hubRun.Run(0, 0, len(hubs))
		hubRun.Finish()

		rt := &Runtime{G: g, Workers: workers, Sources: leaves, Dest: rowDest{m: D}, Flags: f}
		run := kernelRegistry[name].Bind(rt)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				run.Run(w, w, w+1)
			}(w)
		}
		close(start)
		wg.Wait()
		st := run.Finish()

		for _, s := range append(append([]int32(nil), hubs...), leaves...) {
			baseline.DijkstraSSSP(g, s, want)
			for v, d := range D.Row(int(s)) {
				if d != want[v] {
					t.Fatalf("%s: D[%d][%d] = %d, want %d", name, s, v, d, want[v])
				}
			}
		}
		for v := 0; v < n; v++ {
			if got, hub := f.views[v].Load() != nil, v < len(hubs); got != hub {
				t.Errorf("%s: view of row %d exists=%v, want %v (only the hubs are folded)", name, v, got, hub)
			}
		}
		if fv := f.views[2].Load(); fv != nil && fv.idx == nil {
			t.Errorf("%s: sparse hub 2 got no finite-index list: %+v", name, *fv)
		}
		if name != KernelHeap { // the heap kernel leaves its counters at zero
			if st.Folds != int64(workers*len(hubs)) || st.FoldsSkipped != workers {
				t.Errorf("%s: %d folds, %d skipped, want %d and %d",
					name, st.Folds, st.FoldsSkipped, workers*len(hubs), workers)
			}
		}
	}

	for _, name := range []string{KernelMSBFS, KernelSweep} {
		lg := batteryGraph(t, "power-law", false, name == KernelSweep, 19)
		rt := &Runtime{G: lg, Workers: workers, Sources: identitySources(lg.N()),
			Dest: rowDest{m: matrix.NewZero(lg.N())}, Flags: newFlags(lg.N())}
		runPipeline(rt, kernelRegistry[name], sched.DynamicCyclic)
		for v := range rt.Flags.views {
			if rt.Flags.views[v].Load() != nil {
				t.Fatalf("%s: lane solve built a fold view for row %d", name, v)
			}
		}
	}
}
