package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"parapsp/internal/baseline"
	"parapsp/internal/gen"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// reverseOf is the graph Path walks for g: g itself when undirected, else
// its transpose.
func reverseOf(g *graph.Graph) *graph.Graph {
	if g.Undirected() {
		return g
	}
	return g.Transpose()
}

// verifyPath checks a walked path against g and an independent reference
// distance want: a nil path is right only when want is Inf; otherwise the
// path must run from s to v, every step must be an arc of g, and the arc
// weights must sum to want.
func verifyPath(g *graph.Graph, path []int32, s, v int32, want matrix.Dist) error {
	if path == nil {
		if want != matrix.Inf {
			return fmt.Errorf("no path %d->%d but reference distance %d", s, v, want)
		}
		return nil
	}
	if path[0] != s || path[len(path)-1] != v {
		return fmt.Errorf("path %v does not run %d->%d", path, s, v)
	}
	var sum matrix.Dist
	for i := 1; i < len(path); i++ {
		w, ok := g.ArcWeight(path[i-1], path[i])
		if !ok {
			return fmt.Errorf("path step %d->%d is not an arc", path[i-1], path[i])
		}
		sum = matrix.AddSat(sum, w)
	}
	if sum != want {
		return fmt.Errorf("path %d->%d sums to %d, reference distance %d", s, v, sum, want)
	}
	return nil
}

func TestPathsVerifyOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, seed)
		res, err := Solve(g, ParAPSP, Options{Workers: 3})
		if err != nil {
			return false
		}
		ref := baseline.FloydWarshall(g)
		rev := reverseOf(g)
		n := int32(g.N())
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 20; trial++ {
			s, v := rng.Int31n(n), rng.Int31n(n)
			p := Path(rev, res.D.Row(int(s)), s, v)
			if err := verifyPath(g, p, s, v, ref.At(int(s), int(v))); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPathsAllPairsSmall(t *testing.T) {
	g, err := gen.BarabasiAlbert(80, 3, 5, gen.Weighting{Min: 1, Max: 7})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.DijkstraAPSP(g)
	rev := reverseOf(g)
	for _, alg := range allAlgorithms {
		res, err := Solve(g, alg, Options{Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for s := int32(0); s < 80; s++ {
			row := res.D.Row(int(s))
			for v := int32(0); v < 80; v++ {
				if err := verifyPath(g, Path(rev, row, s, v), s, v, ref.At(int(s), int(v))); err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
			}
		}
	}
}

func TestPathEndpoints(t *testing.T) {
	g, err := graph.FromPairs(4, false, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, SeqBasic, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rev := reverseOf(g)
	p := Path(rev, res.D.Row(0), 0, 3)
	want := []int32{0, 1, 2, 3}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
	if got := Path(rev, res.D.Row(2), 2, 2); len(got) != 1 || got[0] != 2 {
		t.Errorf("self path = %v", got)
	}
	if got := Path(rev, res.D.Row(3), 3, 0); got != nil {
		t.Errorf("unreachable path = %v", got)
	}
}

func TestPathPicksShortestOfAlternatives(t *testing.T) {
	// 0->3 direct weight 10 vs 0->1->2->3 weight 3.
	g, err := graph.FromEdges(4, false, []graph.Edge{
		{From: 0, To: 3, W: 10},
		{From: 0, To: 1, W: 1},
		{From: 1, To: 2, W: 1},
		{From: 2, To: 3, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, ParAPSP, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.D.At(0, 3) != 3 {
		t.Fatalf("distance = %d", res.D.At(0, 3))
	}
	p := Path(reverseOf(g), res.D.Row(0), 0, 3)
	if len(p) != 4 {
		t.Fatalf("path = %v, want the 4-vertex route", p)
	}
}

// TestPathsDisconnected covers path walks across components: no path may
// be fabricated between islands, and every intra-island pair must walk
// and verify.
func TestPathsDisconnected(t *testing.T) {
	g := batteryGraph(t, "disconnected", false, true, 19)
	res, err := Solve(g, ParAPSP, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.DijkstraAPSP(g)
	rev := reverseOf(g)
	n := int32(g.N())
	island := func(v int32) int32 { return v / 100 } // batteryGraph: 3 islands of 100
	var cross, within int
	for s := int32(0); s < n; s += 7 {
		row := res.D.Row(int(s))
		for v := int32(0); v < n; v += 3 {
			p := Path(rev, row, s, v)
			if err := verifyPath(g, p, s, v, ref.At(int(s), int(v))); err != nil {
				t.Fatalf("verify %d->%d: %v", s, v, err)
			}
			if island(s) != island(v) {
				cross++
				if res.D.At(int(s), int(v)) != matrix.Inf {
					t.Fatalf("cross-island distance %d->%d = %d", s, v, res.D.At(int(s), int(v)))
				}
				if p != nil {
					t.Fatalf("cross-island path %d->%d = %v", s, v, p)
				}
			} else if s != v && res.D.At(int(s), int(v)) != matrix.Inf {
				within++
				if len(p) < 2 || p[0] != s || p[len(p)-1] != v {
					t.Fatalf("path %d->%d = %v", s, v, p)
				}
			}
		}
	}
	if cross == 0 || within == 0 {
		t.Fatalf("degenerate sampling: cross=%d within=%d", cross, within)
	}
}

// TestPathsSelfLoops pins that self loops (kept explicitly via the
// builder) never enter a walked path: a positive-weight loop can't lie on
// any shortest path, the diagonal stays 0, and s->s walks to the
// single-vertex path.
func TestPathsSelfLoops(t *testing.T) {
	b := graph.NewBuilder(5, false).KeepSelfLoops()
	edges := []graph.Edge{
		{From: 0, To: 0, W: 2}, // self loop on a through-vertex
		{From: 0, To: 1, W: 1},
		{From: 1, To: 1, W: 5},
		{From: 1, To: 2, W: 1},
		{From: 2, To: 3, W: 4},
		{From: 3, To: 3, W: 1},
		// vertex 4 only has its loop: unreachable from the rest.
		{From: 4, To: 4, W: 3},
	}
	for _, e := range edges {
		if err := b.AddWeighted(e.From, e.To, e.W); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, ParAPSP, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.DijkstraAPSP(g)
	rev := reverseOf(g)
	for s := int32(0); s < 5; s++ {
		row := res.D.Row(int(s))
		if d := row[s]; d != 0 {
			t.Errorf("D[%d][%d] = %d, want 0 despite the self loop", s, s, d)
		}
		if p := Path(rev, row, s, s); len(p) != 1 || p[0] != s {
			t.Errorf("self path of %d = %v", s, p)
		}
		for v := int32(0); v < 5; v++ {
			p := Path(rev, row, s, v)
			if err := verifyPath(g, p, s, v, ref.At(int(s), int(v))); err != nil {
				t.Errorf("verify %d->%d: %v", s, v, err)
			}
			for i := 1; i < len(p); i++ {
				if p[i] == p[i-1] {
					t.Errorf("path %d->%d = %v takes a self loop", s, v, p)
				}
			}
		}
	}
	if got := res.D.At(0, 3); got != 6 {
		t.Errorf("D[0][3] = %d, want 6 (loops must not shorten paths)", got)
	}
	if Path(rev, res.D.Row(0), 0, 4) != nil {
		t.Error("loop-only vertex 4 reachable")
	}
}

// TestTrackPathsDoublesMemoryBound pins that shortest paths cost no memory
// beyond the distance matrix (tracking them once doubled the bound): a
// bound of exactly n²·4 bytes admits the solve, one byte less refuses it,
// and every path walks back from the admitted solve's rows.
func TestTrackPathsDoublesMemoryBound(t *testing.T) {
	g, err := gen.BarabasiAlbert(100, 2, 6, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	bound := uint64(100 * 100 * 4)
	res, err := Solve(g, ParAPSP, Options{MaxMemBytes: bound})
	if err != nil {
		t.Fatalf("solve under a bound of exactly n²·4 bytes rejected: %v", err)
	}
	if _, err := Solve(g, ParAPSP, Options{MaxMemBytes: bound - 1}); !errors.Is(err, ErrMemory) {
		t.Errorf("solve under n²·4-1 bytes accepted: %v", err)
	}
	ref := baseline.BFSAPSP(g)
	for s := int32(0); s < 100; s += 9 {
		for v := int32(0); v < 100; v++ {
			if err := verifyPath(g, Path(reverseOf(g), res.D.Row(int(s)), s, v), s, v, ref.At(int(s), int(v))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestVerifyDetectsCorruption pins why verifyPath checks against an
// independent reference rather than the solved matrix: a row entry raised
// by one can still walk to a path that is self-consistent with the
// corrupted row (its weights sum to the raised entry), and only the
// reference distance exposes it.
func TestVerifyDetectsCorruption(t *testing.T) {
	g, err := gen.BarabasiAlbert(50, 2, 7, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, SeqBasic, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const s = 0
	ref := make([]matrix.Dist, g.N())
	baseline.DijkstraSSSP(g, s, ref)
	rev := reverseOf(g)
	row := res.D.Row(s)
	selfConsistent := 0
	for v := int32(1); v < int32(g.N()); v++ {
		if ref[v] == matrix.Inf {
			continue
		}
		if err := verifyPath(g, Path(rev, row, s, v), s, v, ref[v]); err != nil {
			t.Fatalf("clean row: %v", err)
		}
		row[v]++
		p := Path(rev, row, s, v)
		if err := verifyPath(g, p, s, v, ref[v]); err == nil {
			t.Errorf("verifyPath accepted %d->%d = %v, walked from a row raised by one", s, v, p)
		}
		if p != nil && verifyPath(g, p, s, v, row[v]) == nil {
			selfConsistent++
		}
		row[v]--
	}
	if selfConsistent == 0 {
		t.Fatal("no raised entry walked to a self-consistent path; the reference comparison went unexercised")
	}
}

// TestPathSameForEverySolve pins that a path is a pure function of the
// graph and the exact distances. On a weighted and an unweighted directed
// power-law graph of 1,024 vertices (large enough for the dispatch table
// to pick msbfs), every preset's full solve and every registry kernel
// whose Supports accepts the graph, at 1, 2 and 8 workers, must walk the
// identical vertex sequence for every sampled pair. The kernels run as
// subset solves of the sampled sources, the row solves behind the
// serving layer's /path; sequential presets ignore Workers and run once.
func TestPathSameForEverySolve(t *testing.T) {
	ran := map[string]bool{}
	for _, weighted := range []bool{true, false} {
		var w gen.Weighting
		if weighted {
			w = gen.Weighting{Min: 1, Max: 9}
		}
		g, err := gen.PowerLawConfiguration(1024, 2.5, 2, false, 29, w)
		if err != nil {
			t.Fatal(err)
		}
		rev := reverseOf(g)
		n := int32(g.N())
		rng := rand.New(rand.NewSource(29))
		sources := rng.Perm(int(n))[:48]
		type pair struct{ s, v int32 }
		var pairs []pair
		for _, s := range sources {
			for i := 0; i < 8; i++ {
				pairs = append(pairs, pair{int32(s), rng.Int31n(n)})
			}
		}
		// The reference walks over exact rows of heap Dijkstra.
		ref := make([]matrix.Dist, n)
		want := make([][]int32, len(pairs))
		multiHop := 0
		for i, p := range pairs {
			baseline.DijkstraSSSP(g, p.s, ref)
			want[i] = Path(rev, ref, p.s, p.v)
			if err := verifyPath(g, want[i], p.s, p.v, ref[p.v]); err != nil {
				t.Fatalf("weighted=%v reference: %v", weighted, err)
			}
			if len(want[i]) > 2 {
				multiHop++
			}
		}
		if multiHop < len(pairs)/4 {
			t.Fatalf("weighted=%v: only %d of %d sampled pairs have a path of 2+ hops", weighted, multiHop, len(pairs))
		}
		check := func(what, kernel string, row func(s int32) []matrix.Dist) {
			t.Helper()
			ran[kernel] = true
			for i, p := range pairs {
				if got := Path(rev, row(p.s), p.s, p.v); fmt.Sprint(got) != fmt.Sprint(want[i]) {
					t.Fatalf("weighted=%v %s (kernel %s): path %d->%d = %v, want %v",
						weighted, what, kernel, p.s, p.v, got, want[i])
				}
			}
		}
		for _, workers := range []int{1, 2, 8} {
			for _, alg := range Algorithms() {
				if presetFor(alg).sequential && workers > 1 {
					continue
				}
				res, err := Solve(g, alg, Options{Workers: workers})
				if err != nil {
					t.Fatalf("weighted=%v %v workers=%d: %v", weighted, alg, workers, err)
				}
				check(fmt.Sprintf("%v workers=%d", alg, workers), res.Kernel,
					func(s int32) []matrix.Dist { return res.D.Row(int(s)) })
			}
			for _, name := range Kernels() {
				kern, err := LookupKernel(name)
				if err != nil {
					t.Fatal(err)
				}
				if kern.Supports(g, Options{}) != nil {
					continue
				}
				src := make([]int32, len(sources))
				for i, s := range sources {
					src[i] = int32(s)
				}
				sub, err := SolveSubset(g, src, Options{Workers: workers, Kernel: name})
				if err != nil {
					t.Fatalf("weighted=%v kernel %s workers=%d: %v", weighted, name, workers, err)
				}
				if sub.Kernel != name {
					t.Fatalf("weighted=%v: kernel %s ran %s", weighted, name, sub.Kernel)
				}
				check(fmt.Sprintf("subset workers=%d", workers), sub.Kernel, sub.Row)
			}
		}
	}
	for _, name := range Kernels() {
		if !ran[name] {
			t.Errorf("kernel %s never ran; the identity is unchecked for it", name)
		}
	}
}
