package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"parapsp/internal/baseline"
	"parapsp/internal/core"
	"parapsp/internal/dyn"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// The solver-kind surface: every query reports whether the multi-source
// batch engine, the scalar subset solver, or the cache answered it — and
// which SSSP kernel ran — through the kind BatchPinned and PathPinned
// return, the X-Parapsp-Solver header, and the serve.solve.batch/scalar
// counters.

// laneN is the vertex count of the solver-kind tests' graphs: above the
// lane engines' vertex floor (1024), so on an unweighted graph core's
// dispatch table picks by source count — one cold source runs the scalar
// dijkstra kernel, 16 run one msbfs lane batch.
const laneN = 1100

// sourceQueries returns one query from each of the k sources lo, lo+1,
// ... to each of targets.
func sourceQueries(lo, k int32, targets ...int32) []Query {
	var qs []Query
	for u := lo; u < lo+k; u++ {
		for _, v := range targets {
			qs = append(qs, Query{U: u, V: v})
		}
	}
	return qs
}

func TestSolverKindAPI(t *testing.T) {
	g := testGraph(t, laneN, 21)
	s := newTestServer(t, g, Config{Workers: 2, Landmarks: -1})
	ctx := context.Background()

	_, kind, err := dist(ctx, s, 3, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := SolverScalar + "/" + core.KernelDijkstra; kind != want {
		t.Fatalf("cold one-source dist kind %q, want %q", kind, want)
	}
	if _, kind, err = dist(ctx, s, 3, 10, 0); err != nil || kind != SolverCache {
		t.Fatalf("warm dist kind: kind %q err %v, want %q", kind, err, SolverCache)
	}
	if _, _, kind, _, err := s.PathPinned(ctx, 3, 10); err != nil || kind != SolverCache {
		t.Fatalf("warm path kind: kind %q err %v, want %q", kind, err, SolverCache)
	}
	if _, kind, _, err := s.BatchPinned(ctx, sourceQueries(100, 16, 1), 0); err != nil ||
		kind != SolverBatch+"/"+core.KernelMSBFS {
		t.Fatalf("cold 16-source batch kind: kind %q err %v, want batch/msbfs", kind, err)
	}
	snap := s.Metrics().Snapshot()
	if snap["serve.solve.batch"] != 1 || snap["serve.solve.scalar"] != 1 {
		t.Fatalf("engine counters batch=%d scalar=%d, want 1/1",
			snap["serve.solve.batch"], snap["serve.solve.scalar"])
	}
}

// TestSolverKindAutoKernel pins the daemon's kernel resolution end to
// end: every miss solve resolves its kernel per solve, as core does for
// the empty Options.Kernel or its synonym "auto", and the reported kind
// — API and X-Parapsp-Solver header alike — names that resolved registry
// kernel, never the literal "auto", while answering exactly.
func TestSolverKindAutoKernel(t *testing.T) {
	g := testGraph(t, laneN, 25)
	s := newTestServer(t, g, Config{Workers: 2, Landmarks: -1})
	ctx := context.Background()
	row := make([]matrix.Dist, g.N())

	// One cold source is below the lane engines' source threshold, so the
	// resolution picks the scalar dijkstra kernel.
	a, kind, err := dist(ctx, s, 7, 90, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := SolverScalar + "/" + core.KernelDijkstra; kind != want {
		t.Fatalf("cold dist kind %q, want %q", kind, want)
	}
	baseline.DijkstraSSSP(g, 7, row)
	if want := distToJSON(row[90]); a.Dist != want || !a.Exact {
		t.Fatalf("dist(7,90) = %d exact=%v, want %d", a.Dist, a.Exact, want)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dist?u=9&v=40", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /dist: status %d: %s", rec.Code, rec.Body.String())
	}
	got := rec.Header().Get(SolverHeader)
	_, name, _ := strings.Cut(got, "/")
	if name == core.KernelAuto || name == "" {
		t.Fatalf("cold /dist header %q does not name the resolved kernel", got)
	}
	if _, err := core.LookupKernel(name); err != nil {
		t.Fatalf("cold /dist header %q: %v", got, err)
	}
	if want := SolverScalar + "/" + core.KernelDijkstra; got != want {
		t.Fatalf("cold /dist header %q, want %q", got, want)
	}
}

// TestSolverKindHeader pins the X-Parapsp-Solver header: it names the
// kernel the dispatch table resolved for the solve, never "auto", and
// "cache" when no kernel ran.
func TestSolverKindHeader(t *testing.T) {
	g := testGraph(t, laneN, 22)
	s := newTestServer(t, g, Config{Workers: 2, Landmarks: -1})
	h := s.Handler()

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body.String())
		}
		return rec
	}

	coldKind := SolverScalar + "/" + core.KernelDijkstra
	if got := get("/dist?u=5&v=9").Header().Get(SolverHeader); got != coldKind {
		t.Fatalf("cold /dist header %q, want %q", got, coldKind)
	}
	if got := get("/dist?u=5&v=10").Header().Get(SolverHeader); got != SolverCache {
		t.Fatalf("warm /dist header %q, want %q", got, SolverCache)
	}
	if got := get("/path?u=5&v=9").Header().Get(SolverHeader); got != SolverCache {
		t.Fatalf("warm /path header %q, want %q", got, SolverCache)
	}

	// A cold /batch over 16 fresh sources solves them in one lane batch.
	body, err := json.Marshal(map[string][]Query{"queries": sourceQueries(20, 16, 1)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /batch: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(SolverHeader); got != SolverBatch+"/"+core.KernelMSBFS {
		t.Fatalf("cold /batch header %q, want batch/msbfs", got)
	}
}

// TestSolverKindFollowsWeighting moves a lane-sized graph across a
// weighting change. One reweight to 5 makes the unweighted graph
// weighted; the dispatch table keys on the version each solve pins, so
// the next cold batch leaves msbfs for a kernel that solves weighted
// graphs, and answers exactly at the new version.
func TestSolverKindFollowsWeighting(t *testing.T) {
	g := testGraph(t, laneN, 26)
	s := newTestServer(t, g, Config{Workers: 2, Landmarks: -1})
	ctx := context.Background()
	row := make([]matrix.Dist, g.N())

	// batch asks 16 cold sources from lo and checks every answer against
	// heap Dijkstra on ref; it returns the reported kind.
	batch := func(ref *graph.Graph, lo int32, version uint64, targets ...int32) string {
		t.Helper()
		qs := sourceQueries(lo, 16, targets...)
		as, kind, got, err := s.BatchPinned(ctx, qs, 0)
		if err != nil {
			t.Fatalf("batch from %d: %v", lo, err)
		}
		if got != version {
			t.Fatalf("batch from %d answered at version %d, want %d", lo, got, version)
		}
		for i, q := range qs {
			baseline.DijkstraSSSP(ref, q.U, row)
			if want := distToJSON(row[q.V]); as[i].Dist != want || !as[i].Exact {
				t.Fatalf("version %d: dist(%d,%d) = %d exact=%v, want %d",
					version, q.U, q.V, as[i].Dist, as[i].Exact, want)
			}
		}
		return kind
	}

	if kind := batch(g, 100, 1, 0, 7, 999); kind != SolverBatch+"/"+core.KernelMSBFS {
		t.Fatalf("unweighted cold batch kind %q, want batch/msbfs", kind)
	}

	const u = 200
	op := dyn.EdgeOp{Op: dyn.OpReweight, U: u, V: g.Neighbors(u)[0], W: 5}
	res, err := s.ApplyEdge(op)
	if err != nil {
		t.Fatal(err)
	}
	mutated := applyReplica(t, g, op)
	if !mutated.Weighted() {
		t.Fatal("the reweighted replica is still unweighted")
	}
	baseline.DijkstraSSSP(mutated, u, row)
	if row[op.V] == 1 {
		t.Fatalf("dist(%d,%d) is still 1 after %v; the batch below would not see the write", u, op.V, op)
	}

	kind := batch(mutated, u, res.Version, 0, 7, op.V, 999)
	engine, name, _ := strings.Cut(kind, "/")
	kern, err := core.LookupKernel(name)
	if err != nil || (engine != SolverBatch && engine != SolverScalar) {
		t.Fatalf("weighted cold batch kind %q does not name a solve", kind)
	}
	if err := kern.Supports(mutated, core.Options{}); err != nil {
		t.Fatalf("weighted cold batch kind %q: %v", kind, err)
	}
	t.Logf("after %v: cold 16-source batch ran %s", op, kind)
}
