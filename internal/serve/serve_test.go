package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parapsp/internal/admit"
	"parapsp/internal/baseline"
	"parapsp/internal/gen"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// testGraph builds a small connected-ish power-law graph, the workload
// shape the paper (and the serving layer) targets.
func testGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLawConfiguration(n, 2.5, 2, true, seed, gen.Weighting{})
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	return g
}

// rowsBudget is the byte budget of rows uncompressed rows of g.
func rowsBudget(g *graph.Graph, rows int) int64 { return int64(rows) * int64(g.N()) * 4 }

// dist asks one distance query through BatchPinned, returning the answer
// and the solver kind.
func dist(ctx context.Context, s *Server, u, v int32, tol float64) (Answer, string, error) {
	as, kind, _, err := s.BatchPinned(ctx, []Query{{U: u, V: v}}, tol)
	if err != nil {
		return Answer{}, "", err
	}
	return as[0], kind, nil
}

func newTestServer(t testing.TB, g *graph.Graph, cfg Config) *Server {
	t.Helper()
	s, err := New(g, cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func TestExactMatchesFloydWarshall(t *testing.T) {
	g := testGraph(t, 120, 7)
	truth := baseline.FloydWarshall(g)
	s := newTestServer(t, g, Config{Workers: 2, CacheBytes: rowsBudget(g, 16)})
	ctx := context.Background()
	for u := int32(0); u < 40; u++ {
		for _, v := range []int32{0, 1, int32(g.N() - 1), u} {
			ans, _, err := dist(ctx, s, u, v, 0)
			if err != nil {
				t.Fatalf("Dist(%d,%d): %v", u, v, err)
			}
			if !ans.Exact {
				t.Fatalf("Dist(%d,%d) with tol=0 not exact", u, v)
			}
			want := distToJSON(truth.At(int(u), int(v)))
			if ans.Dist != want {
				t.Fatalf("Dist(%d,%d) = %d, want %d", u, v, ans.Dist, want)
			}
		}
	}
}

func TestSingleFlight(t *testing.T) {
	g := testGraph(t, 150, 3)
	s := newTestServer(t, g, Config{Workers: 2, CacheBytes: rowsBudget(g, 64), Landmarks: -1})
	const clients = 16
	src := int32(5)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := dist(context.Background(), s, src, 9, 0); err != nil {
				t.Errorf("Dist: %v", err)
			}
		}()
	}
	wg.Wait()
	snap := s.Metrics().Snapshot()
	// The oracle is disabled, so source 5 was never pre-warmed: exactly one
	// concurrent caller may own the solve of row 5.
	if got := snap["serve.solve.rows"]; got != 1 {
		t.Fatalf("solved %d rows for %d concurrent queries of one source, want 1", got, clients)
	}
	if misses := hotMisses(snap); misses != 1 {
		t.Fatalf("T1 misses = %d, want 1", misses)
	}
	checkRowLedger(t, snap)
}

func TestBatchGroupsSources(t *testing.T) {
	g := testGraph(t, 100, 11)
	truth := baseline.FloydWarshall(g)
	s := newTestServer(t, g, Config{Workers: 2, CacheBytes: rowsBudget(g, 32), Landmarks: -1})
	qs := []Query{{U: 1, V: 2}, {U: 3, V: 4}, {U: 1, V: 7}, {U: 9, V: 1}, {U: 3, V: 3}}
	as, _, _, err := s.BatchPinned(context.Background(), qs, 0)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	for i, a := range as {
		want := distToJSON(truth.At(int(qs[i].U), int(qs[i].V)))
		if a.Dist != want || !a.Exact {
			t.Fatalf("answer %d = %+v, want exact dist %d", i, a, want)
		}
	}
	snap := s.Metrics().Snapshot()
	// Three distinct cold sources (1, 3, 9), one subset solve.
	if snap["serve.solve.batches"] != 1 || snap["serve.solve.rows"] != 3 {
		t.Fatalf("batch did not group sources into one solve: %v", snap)
	}
}

func TestEvictionBound(t *testing.T) {
	g := testGraph(t, 90, 5)
	truth := baseline.FloydWarshall(g)
	s := newTestServer(t, g, Config{Workers: 1, CacheBytes: rowsBudget(g, 4), Landmarks: -1})
	ctx := context.Background()
	for u := int32(0); u < 12; u++ {
		if _, _, err := dist(ctx, s, u, u+13, 0); err != nil {
			t.Fatalf("Dist: %v", err)
		}
	}
	if got := s.StoreStats().HotRows; got > 4 {
		t.Fatalf("cache holds %d rows, cap 4", got)
	}
	snap := s.Metrics().Snapshot()
	if snap["serve.store.demotes"] < 8 {
		t.Fatalf("evictions = %d, want >= 8", snap["serve.store.demotes"])
	}
	// Evicted rows resolve correctly again.
	ans, _, err := dist(ctx, s, 0, 33, 0)
	if err != nil {
		t.Fatalf("Dist after eviction: %v", err)
	}
	if want := distToJSON(truth.At(0, 33)); ans.Dist != want {
		t.Fatalf("post-eviction Dist = %d, want %d", ans.Dist, want)
	}
}

func TestApproxFromLandmark(t *testing.T) {
	g := testGraph(t, 120, 9)
	truth := baseline.FloydWarshall(g)
	s := newTestServer(t, g, Config{Workers: 2, CacheBytes: rowsBudget(g, 32), Landmarks: 8})
	L := s.Oracle().Landmarks()[0]
	var v int32
	for v = 0; v < int32(g.N()); v++ {
		if v != L && truth.At(int(L), int(v)) != matrix.Inf {
			break
		}
	}
	ans, _, err := dist(context.Background(), s, L, v, 0.5)
	if err != nil {
		t.Fatalf("Dist: %v", err)
	}
	// Querying from a landmark, the oracle's bounds pinch (lower == upper ==
	// the true distance), so the cold query must be answered approximately
	// and still be numerically exact.
	if ans.Exact {
		t.Fatalf("cold landmark query with tol>0 answered exactly: %+v", ans)
	}
	want := distToJSON(truth.At(int(L), int(v)))
	if ans.Dist != want || ans.Lower != want || ans.Upper != want {
		t.Fatalf("approx answer %+v, want pinched bounds at %d", ans, want)
	}
}

func TestBackpressure(t *testing.T) {
	g := testGraph(t, 60, 2)
	s := newTestServer(t, g, Config{Workers: 1, CacheBytes: rowsBudget(g, 8), MaxInflight: 1, Landmarks: -1})
	// Occupy the only inflight slot through the admission layer, exactly as
	// a stuck in-flight query would.
	release, err := s.adm.Admit(admit.Request{Client: "holder", Tier: admit.Premium})
	if err != nil {
		t.Fatalf("holder admit: %v", err)
	}
	if _, _, err := dist(context.Background(), s, 1, 2, 0); !errors.Is(err, ErrBusy) {
		t.Fatalf("Dist under full inflight budget = %v, want ErrBusy", err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/dist?u=1&v=2", nil)
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("HTTP status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if got := rec.Header().Get(admit.RejectHeader); got != "inflight" {
		t.Fatalf("reject header = %q, want inflight", got)
	}
	release(nil)
	if _, _, err := dist(context.Background(), s, 1, 2, 0); err != nil {
		t.Fatalf("Dist after release: %v", err)
	}
	snap := s.Metrics().Snapshot()
	if got := snap["admit.rejected_quota"] + snap["admit.rejected_inflight"]; got != 2 {
		t.Fatalf("throttled = %d, want 2", got)
	}
}

func TestClosedServerRefuses(t *testing.T) {
	g := testGraph(t, 60, 4)
	s, err := New(g, Config{Workers: 1, Landmarks: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, _, err := dist(context.Background(), s, 0, 1, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Dist after shutdown = %v, want ErrClosed", err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dist?u=0&v=1", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("HTTP status after shutdown = %d, want 503", rec.Code)
	}
}

func TestPathEndpoint(t *testing.T) {
	// Weighted directed graph where the hop-shortest path is not the
	// weight-shortest one: 0->1->2 costs 2+2=4, direct 0->2 costs 9.
	b := graph.NewBuilder(4, false)
	for _, e := range []graph.Edge{{From: 0, To: 1, W: 2}, {From: 1, To: 2, W: 2}, {From: 0, To: 2, W: 9}} {
		if err := b.AddWeighted(e.From, e.To, e.W); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, g, Config{Workers: 1, Landmarks: -1})

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/path?u=0&v=2", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body)
	}
	var body struct {
		Dist int64   `json:"dist"`
		Path []int32 `json:"path"`
		Hops int     `json:"hops"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Dist != 4 || body.Hops != 2 || len(body.Path) != 3 ||
		body.Path[0] != 0 || body.Path[1] != 1 || body.Path[2] != 2 {
		t.Fatalf("path body = %+v, want 0->1->2 at distance 4", body)
	}

	// Vertex 3 is isolated: unreachable yields dist -1 and an empty path.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/path?u=0&v=3", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Dist != -1 || body.Hops != -1 || len(body.Path) != 0 {
		t.Fatalf("unreachable path body = %+v", body)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	g := testGraph(t, 80, 13)
	truth := baseline.FloydWarshall(g)
	s := newTestServer(t, g, Config{Workers: 1, CacheBytes: rowsBudget(g, 16)})
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dist?u=3&v=17", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/dist status = %d body %s", rec.Code, rec.Body)
	}
	var ans Answer
	if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
		t.Fatal(err)
	}
	if want := distToJSON(truth.At(3, 17)); ans.Dist != want {
		t.Fatalf("/dist = %d, want %d", ans.Dist, want)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch",
		strings.NewReader(`{"queries":[{"u":1,"v":2},{"u":5,"v":6}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/batch status = %d body %s", rec.Code, rec.Body)
	}
	var bb batchBody
	if err := json.Unmarshal(rec.Body.Bytes(), &bb); err != nil {
		t.Fatal(err)
	}
	if len(bb.Answers) != 2 || bb.Answers[1].Dist != distToJSON(truth.At(5, 6)) {
		t.Fatalf("/batch answers = %+v", bb.Answers)
	}

	for _, bad := range []string{"/dist?u=-1&v=2", "/dist?u=1", "/dist?u=1&v=2&tol=-3", "/dist?u=1&v=999999"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, bad, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s status = %d, want 400", bad, rec.Code)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"vertices": 80`) {
		t.Fatalf("/healthz = %d %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics not valid JSON: %v", err)
	}
	checkRowLedger(t, snap)

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", rec.Code)
	}
}

// hotMisses is the number of row lookups T1 did not answer.
func hotMisses(snap map[string]int64) int64 {
	return snap["serve.store.t2_promotes"] + snap["serve.store.t3_promotes"] + snap["serve.store.misses"]
}

// checkRowLedger asserts the row store's lookup ledger on a counter
// snapshot: every row lookup is a T1 hit or a T1 miss.
func checkRowLedger(t *testing.T, snap map[string]int64) {
	t.Helper()
	if snap["serve.cache.lookups"] != snap["serve.store.t1_hits"]+hotMisses(snap) {
		t.Fatalf("row lookups do not reconcile: lookups=%d t1=%d t2=%d t3=%d misses=%d",
			snap["serve.cache.lookups"], snap["serve.store.t1_hits"], snap["serve.store.t2_promotes"],
			snap["serve.store.t3_promotes"], snap["serve.store.misses"])
	}
}
