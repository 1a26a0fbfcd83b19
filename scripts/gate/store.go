package main

import (
	"bufio"
	"context"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"parapsp/internal/baseline"
	"parapsp/internal/gen"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/serve"
)

// The store run: two servers on the same power-law graph, one with RAM
// for every row (all-hot, the O(n^2) footprint nothing at scale can
// afford), one with the tiered store at 1/16 of that budget: compressed
// warm frames in RAM, the rest spilled to a disk arena. Both serve the
// same seeded hot/cold/fresh workload.
const (
	storeN         = 800
	storeFactor    = 16 // all-hot bytes / tiered RAM budget
	storeLandmarks = 16
	storeQueries   = 4000
	storeHotSrc    = 32 // upper bound on the hot source set
	spotSources    = 6
	spotPerSource  = 16 // 96 spot checks
)

// runStore measures the store phase.
func runStore() (storeRun, error) {
	n := storeN
	// minDeg 6 keeps the graph in the paper's complex-graph regime, dense
	// enough that a fresh SSSP solve visibly outweighs a frame decode.
	g, err := gen.PowerLawConfiguration(n, 2.5, 6, true, seed, gen.Weighting{})
	if err != nil {
		return storeRun{}, err
	}
	workers := min(2, runtime.NumCPU())
	allHot := int64(n) * int64(n) * 4
	budget := allHot / storeFactor

	// The hot set must be T1-resident in the tiered config (T1 gets a
	// quarter of the budget), or "hot" traffic measures decode latency
	// instead of cache-hit latency.
	hotSrc := max(4, min(storeHotSrc, int(budget/4/(4*int64(n)))/2))
	// Fresh sources are withheld from the warmup, so the measured tail is
	// a first-touch subset solve in both configurations: the all-hot
	// server pays it too. First touches outnumber the top-1% slots.
	fresh := max(64, n/10)
	warmed := n - fresh

	st := storeRun{ScaleFactor: float64(allHot) / float64(budget)}

	base, err := serve.New(g, serve.Config{
		Workers:    workers,
		CacheBytes: allHot,
		WarmBytes:  -1,
		Landmarks:  storeLandmarks,
	})
	if err != nil {
		return st, err
	}
	baseLat, err := storeWorkload(base, n, warmed, hotSrc)
	if err != nil {
		return st, err
	}
	if err := base.Shutdown(context.Background()); err != nil {
		return st, err
	}
	// Collect the all-hot server before the tiered run, so the tiered
	// heap and RSS readings do not carry it.
	runtime.GC()

	dir, err := os.MkdirTemp("", "gate-store")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)
	tier, err := serve.New(g, serve.Config{
		Workers:    workers,
		CacheBytes: budget / 4,
		WarmBytes:  budget - budget/4,
		SpillBytes: allHot, // disk is the cheap dimension
		SpillDir:   dir,
		Landmarks:  storeLandmarks,
	})
	if err != nil {
		return st, err
	}
	tierLat, err := storeWorkload(tier, n, warmed, hotSrc)
	if err != nil {
		return st, err
	}
	if b := p99(baseLat); b > 0 {
		st.P99Ratio = float64(p99(tierLat)) / float64(b)
	}
	// Spot checks before shutdown: tiered answers, promoted through the
	// decode paths, against an independent reference.
	if err := spotCheck(tier, g, &st); err != nil {
		return st, err
	}
	st.ColdRows = tier.StoreStats().ColdRows
	if err := tier.Shutdown(context.Background()); err != nil {
		return st, err
	}
	st.Metrics = tier.Metrics().Snapshot()
	st.TierHeapBytes = heapInuse()
	st.VmRSSBytes = readVmRSS()
	return st, nil
}

// storeWorkload warms every non-fresh source once, then times the seeded
// mixed workload: 70% from a hot set sized to fit the tiered T1, 27%
// uniform over the warmed range (tier promotes), 3% from the withheld
// fresh pool (first-touch solves, the tail both servers pay). It returns
// the sorted per-query latencies.
func storeWorkload(s *serve.Server, n, warmed, hotSrc int) ([]time.Duration, error) {
	ctx := context.Background()
	for u := 0; u < warmed; u++ {
		if _, _, _, err := s.BatchPinned(ctx, []serve.Query{{U: int32(u), V: int32((u + 7) % n)}}, 0); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed + 99))
	hotSet := make([]int32, hotSrc)
	for i := range hotSet {
		hotSet[i] = int32(rng.Intn(warmed))
	}
	lats := make([]time.Duration, 0, storeQueries)
	for i := 0; i < storeQueries; i++ {
		var u int32
		switch r := rng.Float64(); {
		case r < 0.70:
			u = hotSet[rng.Intn(len(hotSet))]
		case r < 0.97:
			u = int32(rng.Intn(warmed))
		default:
			u = int32(warmed + rng.Intn(n-warmed))
		}
		v := int32(rng.Intn(n))
		start := time.Now()
		if _, _, _, err := s.BatchPinned(ctx, []serve.Query{{U: u, V: v}}, 0); err != nil {
			return nil, err
		}
		lats = append(lats, time.Since(start))
	}
	slices.Sort(lats)
	return lats, nil
}

// p99 is the nearest-rank 99th percentile of sorted latencies.
func p99(sorted []time.Duration) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(len(sorted)*99/100, len(sorted)-1)]
}

// spotCheck holds spotSources x spotPerSource tiered answers to exact
// equality with heap Dijkstra from the baseline package, which shares no
// code with the subset solver the server's misses run.
func spotCheck(s *serve.Server, g *graph.Graph, st *storeRun) error {
	n := g.N()
	rng := rand.New(rand.NewSource(seed + 7))
	srcs := make([]int32, spotSources)
	for i := range srcs {
		srcs[i] = int32(rng.Intn(n))
	}
	dist := make([]matrix.Dist, n)
	ctx := context.Background()
	for _, u := range srcs {
		baseline.DijkstraSSSP(g, u, dist)
		for j := 0; j < spotPerSource; j++ {
			v := int32(rng.Intn(n))
			as, _, _, err := s.BatchPinned(ctx, []serve.Query{{U: u, V: v}}, 0)
			if err != nil {
				return err
			}
			want := int64(-1)
			if dist[v] != matrix.Inf {
				want = int64(dist[v])
			}
			st.ExactChecked++
			if !as[0].Exact || as[0].Dist != want {
				st.ExactMismatch++
			}
		}
	}
	return nil
}

// heapInuse reports the post-GC Go heap in use.
func heapInuse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// readVmRSS parses the process resident set size from /proc/self/status;
// 0 when it is unavailable (non-Linux).
func readVmRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}
