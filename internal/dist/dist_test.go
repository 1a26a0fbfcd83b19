package dist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"parapsp/internal/baseline"
	"parapsp/internal/gen"
	"parapsp/internal/graph"
)

func TestDistributedMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := rng.Intn(4 * n)
		var w gen.Weighting
		if rng.Intn(2) == 0 {
			w = gen.Weighting{Min: 1, Max: 9}
		}
		g, err := gen.ErdosRenyiGNM(n, m, rng.Intn(2) == 0, seed, w)
		if err != nil {
			return false
		}
		ref := baseline.FloydWarshall(g)
		for _, nodes := range []int{1, 2, 5} {
			D, _, err := Solve(g, Config{Nodes: nodes})
			if err != nil || !D.Equal(ref) {
				t.Logf("seed %d nodes %d: %v", seed, nodes, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedScaleFree(t *testing.T) {
	g, err := gen.BarabasiAlbert(400, 3, 3, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.BFSAPSP(g)
	for _, nodes := range []int{1, 2, 4, 8} {
		D, st, err := Solve(g, Config{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		if !D.Equal(ref) {
			t.Fatalf("%d nodes: wrong solution", nodes)
		}
		wantMsgs := int64(g.N()) * int64(nodes-1)
		if st.Messages != wantMsgs {
			t.Errorf("%d nodes: %d messages, want %d (every row to every peer)", nodes, st.Messages, wantMsgs)
		}
		if st.Bytes != uint64(st.Messages)*uint64(g.N())*4 {
			t.Errorf("%d nodes: byte accounting off: %d", nodes, st.Bytes)
		}
		if nodes == 1 && st.Messages != 0 {
			t.Errorf("single node sent %d messages", st.Messages)
		}
	}
}

func TestDistributedNoBroadcastStillExact(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 3, 4, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.BFSAPSP(g)
	D, st, err := Solve(g, Config{Nodes: 4, DisableBroadcast: true})
	if err != nil {
		t.Fatal(err)
	}
	if !D.Equal(ref) {
		t.Fatal("no-broadcast solution wrong")
	}
	if st.Messages != 0 || st.Bytes != 0 || st.RemoteFolds != 0 {
		t.Errorf("no-broadcast stats = %+v", st)
	}
}

func TestDistributedFoldAccounting(t *testing.T) {
	g, err := gen.BarabasiAlbert(300, 4, 5, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := Solve(g, Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.LocalFolds+st.RemoteFolds == 0 {
		t.Error("no folds recorded on a dense scale-free graph; reuse path dead?")
	}
	// Single node: all folds local.
	_, st1, err := Solve(g, Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st1.RemoteFolds != 0 {
		t.Errorf("single node recorded %d remote folds", st1.RemoteFolds)
	}
	if st1.LocalFolds == 0 {
		t.Error("single node recorded no local folds")
	}
}

// TestDistributedDisconnectedDirected covers the Inf entries: every node
// initializes the rows it solves, so a pair no search reaches must still
// read Inf, at one node, a few, and one node per vertex.
func TestDistributedDisconnectedDirected(t *testing.T) {
	// A one-way cycle with a tail, a separate directed path, and three
	// isolated vertices (9, 10, 11).
	pairs := [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {5, 6}, {6, 7}, {7, 8}}
	g, err := graph.FromPairs(12, false, pairs)
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.FloydWarshall(g)
	if !ref.Equal(baseline.DijkstraAPSP(g)) {
		t.Fatal("the two references disagree")
	}
	if ref.CountFinite() == g.N()*g.N() {
		t.Fatal("test graph has no unreachable pair")
	}
	for _, nodes := range []int{1, 3, g.N()} {
		D, _, err := Solve(g, Config{Nodes: nodes})
		if err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		if !D.Equal(ref) {
			diff, _ := D.Diff(ref, 5)
			t.Fatalf("%d nodes: wrong entries at %v", nodes, diff)
		}
	}
}

func TestDistributedEdgeCases(t *testing.T) {
	if _, _, err := Solve(nilSafeGraph(t, 0), Config{Nodes: 3}); err != nil {
		t.Errorf("empty graph: %v", err)
	}
	g1 := nilSafeGraph(t, 1)
	D, _, err := Solve(g1, Config{Nodes: 5})
	if err != nil || D.At(0, 0) != 0 {
		t.Errorf("singleton: %v", err)
	}
	if _, _, err := Solve(g1, Config{Nodes: 0}); err == nil {
		t.Error("zero nodes accepted")
	}
	// More nodes than vertices clamps.
	g3 := nilSafeGraph(t, 3)
	if _, _, err := Solve(g3, Config{Nodes: 64}); err != nil {
		t.Errorf("nodes > n: %v", err)
	}
	// Tiny inbox still completes (receivers drain concurrently).
	g, err := gen.BarabasiAlbert(100, 2, 6, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Solve(g, Config{Nodes: 4, InboxDepth: 1}); err != nil {
		t.Errorf("tiny inbox: %v", err)
	}
}

func nilSafeGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var pairs [][2]int32
	for i := 0; i+1 < n; i++ {
		pairs = append(pairs, [2]int32{int32(i), int32(i + 1)})
	}
	g, err := graph.FromPairs(n, true, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
