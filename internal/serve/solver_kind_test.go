package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"parapsp/internal/core"
)

// The solver-kind surface: every query reports whether the multi-source
// batch engine, the scalar subset solver, or the cache answered it — and
// which SSSP kernel ran — through the kind BatchPinned and PathPinned
// return, the X-Parapsp-Solver header, and the serve.solve.batch/scalar
// counters.

func TestSolverKindAPI(t *testing.T) {
	g := testGraph(t, 150, 21)
	s := newTestServer(t, g, Config{Workers: 2, Landmarks: -1, Batch: core.BatchForce})
	ctx := context.Background()

	_, kind, err := dist(ctx, s, 3, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := SolverBatch + "/" + core.KernelMSBFS; kind != want {
		t.Fatalf("cold dist kind under BatchForce: kind %q, want %q", kind, want)
	}
	if _, kind, err = dist(ctx, s, 3, 10, 0); err != nil || kind != SolverCache {
		t.Fatalf("warm dist kind: kind %q err %v, want %q", kind, err, SolverCache)
	}
	if _, _, kind, _, err := s.PathPinned(ctx, 3, 10); err != nil || kind != SolverCache {
		t.Fatalf("warm path kind: kind %q err %v, want %q", kind, err, SolverCache)
	}
	snap := s.Metrics().Snapshot()
	if snap["serve.solve.batch"] != 1 || snap["serve.solve.scalar"] != 0 {
		t.Fatalf("engine counters batch=%d scalar=%d, want 1/0",
			snap["serve.solve.batch"], snap["serve.solve.scalar"])
	}

	// A scalar-pinned server reports the scalar default on the same cold
	// query.
	s2 := newTestServer(t, g, Config{Workers: 2, Landmarks: -1, Batch: core.BatchOff})
	if _, kind, err := dist(ctx, s2, 3, 9, 0); err != nil || kind != SolverScalar+"/"+core.KernelDijkstra {
		t.Fatalf("cold dist kind under BatchOff: kind %q err %v, want scalar/dijkstra", kind, err)
	}
	if got := s2.Metrics().Snapshot()["serve.solve.scalar"]; got != 1 {
		t.Fatalf("serve.solve.scalar = %d, want 1", got)
	}
}

// TestSolverKindPinnedKernel pins Config.Kernel end to end: the pinned
// kernel bypasses the batch policy, shows up in the reported kind, and
// still answers exactly (the cached row from a delta solve agrees with a
// dijkstra server's answer).
func TestSolverKindPinnedKernel(t *testing.T) {
	g := testGraph(t, 150, 23)
	ctx := context.Background()
	pinned := newTestServer(t, g, Config{Workers: 2, Landmarks: -1, Kernel: core.KernelDelta})
	plain := newTestServer(t, g, Config{Workers: 2, Landmarks: -1, Batch: core.BatchOff})

	ap, kind, err := dist(ctx, pinned, 7, 90, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := SolverScalar + "/" + core.KernelDelta; kind != want {
		t.Fatalf("pinned dist kind: kind %q, want %q", kind, want)
	}
	ad, _, err := dist(ctx, plain, 7, 90, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Dist != ad.Dist {
		t.Fatalf("delta answer %d != dijkstra answer %d", ap.Dist, ad.Dist)
	}
}

// TestSolverKindAutoKernel pins Config.Kernel = "auto" end to end: New
// accepts it without registry validation (it is not a registry entry),
// the per-solve resolution picks a concrete kernel, and the reported
// kind — API and X-Parapsp-Solver header alike — names that resolved
// kernel, never the literal "auto".
func TestSolverKindAutoKernel(t *testing.T) {
	g := testGraph(t, 150, 25)
	ctx := context.Background()
	s := newTestServer(t, g, Config{Workers: 2, Landmarks: -1, Kernel: core.KernelAuto})
	plain := newTestServer(t, g, Config{Workers: 2, Landmarks: -1, Batch: core.BatchOff})

	// One cold source on a small unweighted graph is below the batch
	// thresholds, so auto resolves to the scalar dijkstra kernel.
	aa, kind, err := dist(ctx, s, 7, 90, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := SolverScalar + "/" + core.KernelDijkstra; kind != want {
		t.Fatalf("auto dist kind: kind %q, want %q", kind, want)
	}
	ad, _, err := dist(ctx, plain, 7, 90, 0)
	if err != nil {
		t.Fatal(err)
	}
	if aa.Dist != ad.Dist {
		t.Fatalf("auto answer %d != plain answer %d", aa.Dist, ad.Dist)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dist?u=9&v=40", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /dist: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(solverHeader); got != SolverScalar+"/"+core.KernelDijkstra {
		t.Fatalf("auto /dist header %q, want the resolved kernel, not %q", got, core.KernelAuto)
	}
}

// TestServeRejectsBadKernel pins that kernel validation happens at New
// time: unknown names and kernels that cannot serve the graph fail
// startup instead of every query.
func TestServeRejectsBadKernel(t *testing.T) {
	g := testGraph(t, 60, 24) // unweighted
	if _, err := New(g, Config{Kernel: "bogus"}); !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("unknown kernel: err %v, want ErrInvalid", err)
	}
	// sweep is weighted-only; the test graph is unweighted.
	if _, err := New(g, Config{Kernel: core.KernelSweep}); err == nil {
		t.Fatal("sweep kernel accepted on an unweighted graph")
	}
}

func TestSolverKindHeader(t *testing.T) {
	g := testGraph(t, 150, 22)
	s := newTestServer(t, g, Config{Workers: 2, Landmarks: -1, Batch: core.BatchForce})
	h := s.Handler()

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body.String())
		}
		return rec
	}

	coldKind := SolverBatch + "/" + core.KernelMSBFS
	if got := get("/dist?u=5&v=9").Header().Get(solverHeader); got != coldKind {
		t.Fatalf("cold /dist header %q, want %q", got, coldKind)
	}
	if got := get("/dist?u=5&v=10").Header().Get(solverHeader); got != SolverCache {
		t.Fatalf("warm /dist header %q, want %q", got, SolverCache)
	}
	if got := get("/path?u=5&v=9").Header().Get(solverHeader); got != SolverCache {
		t.Fatalf("warm /path header %q, want %q", got, SolverCache)
	}

	// A cold /batch over several fresh sources solves them in one batch.
	var body bytes.Buffer
	fmt.Fprintf(&body, `{"queries":[{"u":20,"v":1},{"u":21,"v":1},{"u":22,"v":1}]}`)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", &body))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /batch: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(solverHeader); got != coldKind {
		t.Fatalf("cold /batch header %q, want %q", got, coldKind)
	}
}
