package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"parapsp/internal/baseline"
	"parapsp/internal/dist"
	"parapsp/internal/gen"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/serve"
)

// testGraph builds the same graph `parapspd -gen n -seed seed` serves
// (Barabási–Albert, m=4, unweighted), so tests that boot real shards can
// derive the exact oracle independently.
func testGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(n, 4, seed, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// diffGraph mirrors core's battery families at a size where the
// Floyd–Warshall oracle is instant: the paper's power-law regime, the
// narrow-frontier grid, and a disconnected graph whose matrix is mostly
// Inf (so the -1 wire encoding round-trips through the router too).
func diffGraph(t *testing.T, family string, seed int64) *graph.Graph {
	t.Helper()
	w := gen.Weighting{Min: 1, Max: 9}
	var g *graph.Graph
	var err error
	switch family {
	case "power-law":
		g, err = gen.PowerLawConfiguration(120, 2.5, 2, true, seed, w)
	case "grid":
		g, err = gen.Grid2D(10, 12, true, seed, w)
	case "disconnected":
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(120, true)
		b.ForceWeighted()
		for island := 0; island < 3; island++ {
			base := int32(island * 40)
			for e := 0; e < 90; e++ {
				u := base + int32(rng.Intn(40))
				v := base + int32(rng.Intn(40))
				if u == v {
					continue
				}
				wt := w.Min + matrix.Dist(rng.Int63n(int64(w.Max-w.Min+1)))
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

// clusterMatrix reassembles the full APSP matrix through a router over 3
// real serve shards (every shard holds the same graph; the ring only
// decides which replica solves which row), one /batch per source row.
func clusterMatrix(t *testing.T, g *graph.Graph) *matrix.Matrix {
	t.Helper()
	n := g.N()
	var shards []Shard
	for i := 0; i < 3; i++ {
		s, err := serve.New(g, serve.Config{
			Workers: 2, CacheBytes: int64(n) * int64(n) * 4, MaxBatch: n, Landmarks: -1,
			ShardID: fmt.Sprintf("s%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		h := httptest.NewServer(s.Handler())
		t.Cleanup(h.Close)
		shards = append(shards, Shard{ID: fmt.Sprintf("s%d", i), Addr: strings.TrimPrefix(h.URL, "http://")})
	}
	r, err := New(Config{Shards: shards, MaxBatch: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	h := r.Handler()

	m := matrix.New(n)
	for u := 0; u < n; u++ {
		wire := batchWire{Queries: make([]serve.Query, n)}
		for v := 0; v < n; v++ {
			wire.Queries[v] = serve.Query{U: int32(u), V: int32(v)}
		}
		body, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("row %d: status %d: %s", u, rec.Code, rec.Body)
		}
		var out batchAnswers
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("row %d: %v", u, err)
		}
		if len(out.Answers) != n {
			t.Fatalf("row %d: %d answers for %d queries", u, len(out.Answers), n)
		}
		for _, a := range out.Answers {
			if !a.Exact {
				t.Fatalf("row %d: inexact answer %+v with the oracle disabled", u, a)
			}
			d := matrix.Inf
			if a.Dist >= 0 {
				d = matrix.Dist(a.Dist)
			}
			m.Set(int(a.U), int(a.V), d)
		}
	}
	checkLedger(t, r)
	return m
}

// TestDifferentialPartitioning is the cross-implementation oracle check:
// the same APSP instance solved three ways — the internal/dist
// round-robin source partition, the router's consistent-hash partition
// over real HTTP shards, and the Floyd–Warshall baseline — must agree to
// the checksum. Partitioning strategy must never leak into answers.
func TestDifferentialPartitioning(t *testing.T) {
	for _, family := range []string{"power-law", "grid", "disconnected"} {
		family := family
		t.Run(family, func(t *testing.T) {
			g := diffGraph(t, family, 42)
			truth := baseline.FloydWarshall(g)
			want := truth.Checksum()

			rr, _, err := dist.Solve(g, dist.Config{Nodes: 3})
			if err != nil {
				t.Fatal(err)
			}
			if got := rr.Checksum(); got != want {
				diff, _ := rr.Diff(truth, 3)
				t.Fatalf("round-robin partition checksum %x != FW %x; first diffs %v", got, want, diff)
			}

			ch := clusterMatrix(t, g)
			if got := ch.Checksum(); got != want {
				diff, _ := ch.Diff(truth, 3)
				t.Fatalf("consistent-hash partition checksum %x != FW %x; first diffs %v", got, want, diff)
			}
		})
	}
}
