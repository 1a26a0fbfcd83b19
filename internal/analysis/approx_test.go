package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parapsp/internal/baseline"
	"parapsp/internal/gen"
	"parapsp/internal/graph"
)

func TestDiameterBoundsContainTruth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g, err := gen.ErdosRenyiGNM(n, n+rng.Intn(3*n), true, seed, gen.Weighting{})
		if err != nil {
			return false
		}
		truth := Diameter(baseline.BFSAPSP(g))
		lo, hi := DiameterBounds(g, 4)
		if lo > truth || hi < truth {
			t.Logf("seed %d: bounds [%d,%d] exclude diameter %d", seed, lo, hi, truth)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDiameterBoundsExactOnPath(t *testing.T) {
	var pairs [][2]int32
	for i := 0; i < 19; i++ {
		pairs = append(pairs, [2]int32{int32(i), int32(i + 1)})
	}
	g, err := graph.FromPairs(20, true, pairs)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := DiameterBounds(g, 4)
	if lo != 19 {
		t.Errorf("path lower bound = %d, want 19", lo)
	}
	if hi < 19 || hi > 20 {
		t.Errorf("path upper bound = %d", hi)
	}
}

func TestDiameterBoundsScaleFreeTight(t *testing.T) {
	g, err := gen.BarabasiAlbert(2000, 3, 31, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	truth := Diameter(baseline.BFSAPSP(g))
	lo, hi := DiameterBounds(g, 4)
	if lo > truth || hi < truth {
		t.Fatalf("bounds [%d,%d] exclude diameter %d", lo, hi, truth)
	}
	// On scale-free graphs the double sweep is usually exact.
	if hi-lo > 2 {
		t.Errorf("bounds loose on BA graph: [%d,%d] truth %d", lo, hi, truth)
	}
}

func TestDiameterBoundsEdgeCases(t *testing.T) {
	g0, _ := graph.FromPairs(0, true, nil)
	if lo, hi := DiameterBounds(g0, 2); lo != 0 || hi != 0 {
		t.Errorf("empty bounds = [%d,%d]", lo, hi)
	}
	g1, _ := graph.FromPairs(3, true, nil)
	if lo, hi := DiameterBounds(g1, 2); lo != 0 || hi != 0 {
		t.Errorf("edgeless bounds = [%d,%d]", lo, hi)
	}
	// Disconnected: bounds cover the largest component's diameter.
	g2, _ := graph.FromPairs(6, true, [][2]int32{{0, 1}, {1, 2}, {3, 4}})
	lo, _ := DiameterBounds(g2, 3)
	if lo < 1 {
		t.Errorf("disconnected lower bound = %d", lo)
	}
}

func TestPageRankUniformOnCycle(t *testing.T) {
	var pairs [][2]int32
	for i := 0; i < 8; i++ {
		pairs = append(pairs, [2]int32{int32(i), int32((i + 1) % 8)})
	}
	g, err := graph.FromPairs(8, false, pairs)
	if err != nil {
		t.Fatal(err)
	}
	pr := PageRank(g, 0.85, 1e-12, 200, 2)
	for v, r := range pr {
		if math.Abs(r-0.125) > 1e-9 {
			t.Errorf("cycle rank[%d] = %g, want 0.125", v, r)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g, err := gen.ErdosRenyiGNM(n, rng.Intn(4*n), false, seed, gen.Weighting{})
		if err != nil {
			return false
		}
		pr := PageRank(g, 0.85, 1e-10, 300, 3)
		sum := 0.0
		for _, r := range pr {
			if r < 0 {
				return false
			}
			sum += r
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPageRankHubRanksHighest(t *testing.T) {
	// Star pointing inward: every leaf links to the hub.
	var pairs [][2]int32
	for i := int32(1); i < 10; i++ {
		pairs = append(pairs, [2]int32{i, 0})
	}
	g, err := graph.FromPairs(10, false, pairs)
	if err != nil {
		t.Fatal(err)
	}
	pr := PageRank(g, 0.85, 1e-12, 200, 2)
	if TopK(pr, 1)[0] != 0 {
		t.Errorf("hub not top ranked: %v", pr)
	}
	if pr[0] < 5*pr[1] {
		t.Errorf("hub rank %g not dominant over leaf %g", pr[0], pr[1])
	}
}

func TestPageRankDanglingMass(t *testing.T) {
	// 0 -> 1, 1 dangles. Ranks must still sum to 1 and converge.
	g, err := graph.FromPairs(2, false, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	pr := PageRank(g, 0.85, 1e-12, 500, 1)
	if math.Abs(pr[0]+pr[1]-1) > 1e-9 {
		t.Errorf("ranks sum to %g", pr[0]+pr[1])
	}
	if pr[1] <= pr[0] {
		t.Errorf("sink rank %g not above source %g", pr[1], pr[0])
	}
}

func TestPageRankDefaultsAndEmpty(t *testing.T) {
	if len(PageRank(mustEmpty(t), 0.85, 1e-9, 10, 2)) != 0 {
		t.Error("empty PageRank non-empty")
	}
	g, _ := graph.FromPairs(3, true, [][2]int32{{0, 1}, {1, 2}})
	// Out-of-range damping/tol/iter fall back to sane defaults.
	pr := PageRank(g, 7, -1, 0, 0)
	sum := 0.0
	for _, r := range pr {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("defaulted PageRank sums to %g", sum)
	}
}

func mustEmpty(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromPairs(0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPageRankWorkerInvariance(t *testing.T) {
	g, err := gen.BarabasiAlbert(300, 3, 37, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	a := PageRank(g, 0.85, 1e-12, 100, 1)
	b := PageRank(g, 0.85, 1e-12, 100, 8)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("rank[%d] differs across workers: %g vs %g", i, a[i], b[i])
		}
	}
}
