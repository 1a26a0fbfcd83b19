package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parapsp/internal/baseline"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// TestStressMixedWorkload hammers one server from many goroutines with a
// mix of exact, approximate, batch, and path queries over a power-law
// graph, checking every answer against a precomputed Floyd-Warshall
// oracle. T1 is deliberately undersized so eviction, re-solve, and
// single-flight coalescing all happen under contention; the run must be
// clean under -race and the row ledger must reconcile exactly
// (T1 hits + T1 misses == lookups).
func TestStressMixedWorkload(t *testing.T) {
	const (
		goroutines = 8
		opsPerG    = 150
	)
	g := testGraph(t, 220, 21)
	truth := baseline.FloydWarshall(g)
	s := newTestServer(t, g, Config{
		Workers:        2,
		CacheBytes:     rowsBudget(g, 24), // << 220 sources: forces eviction + cold paths
		Landmarks:      8,
		SpillBytes:     1 << 20, // engage the cold tier too: T1->T2->T3 churn
		SpillDir:       t.TempDir(),
		MaxInflight:    2 * goroutines,
		RequestTimeout: 30 * time.Second,
	})
	h := s.Handler()
	n := int32(g.N())

	var answered, approxSeen, busy atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < goroutines; c++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1000 + id))
			for op := 0; op < opsPerG; op++ {
				u, v := int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))
				var err error
				switch op % 4 {
				case 0:
					err = stressExact(s, truth, u, v)
				case 1:
					err = stressApprox(s, truth, u, v, 0.5, &approxSeen)
				case 2:
					err = stressBatch(h, truth, rng, n)
				case 3:
					err = stressPath(h, g, truth, u, v)
				}
				if errors.Is(err, ErrBusy) {
					busy.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("goroutine %d op %d: %v", id, op, err)
					return
				}
				answered.Add(1)
			}
		}(int64(c))
	}
	wg.Wait()

	if answered.Load() == 0 {
		t.Fatal("no operations completed")
	}
	// Drain before reading the counters: the reconciliation below is only
	// exact once no Load is mid-flight.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	t.Logf("answered=%d approx=%d busy=%d cached=%d",
		answered.Load(), approxSeen.Load(), busy.Load(), s.StoreStats().HotRows)

	snap := s.Metrics().Snapshot()
	checkRowLedger(t, snap)
	// The tiered-store ledger (satellite 2): every counted lookup is
	// answered by exactly one of the sketch, the three tiers, or a solve.
	wantLookups := snap["serve.store.sketch_answered"] + snap["serve.store.t1_hits"] +
		snap["serve.store.t2_promotes"] + snap["serve.store.t3_promotes"] + snap["serve.store.misses"]
	if snap["serve.store.lookups"] != wantLookups {
		t.Fatalf("store ledger does not reconcile: lookups=%d sketch=%d t1=%d t2=%d t3=%d misses=%d",
			snap["serve.store.lookups"], snap["serve.store.sketch_answered"], snap["serve.store.t1_hits"],
			snap["serve.store.t2_promotes"], snap["serve.store.t3_promotes"], snap["serve.store.misses"])
	}
	if snap["serve.solve.rows"] < snap["serve.store.misses"] {
		t.Fatalf("solved %d rows but store missed %d times (every store miss must be solved)",
			snap["serve.solve.rows"], snap["serve.store.misses"])
	}
	if got := s.StoreStats().HotRows; got > 24 {
		t.Fatalf("cache exceeded capacity: %d rows", got)
	}
	if snap["serve.store.t2_promotes"]+snap["serve.store.t3_promotes"] == 0 {
		t.Fatal("undersized hot tier never promoted from the compressed tiers")
	}
	// The admission ledger must reconcile exactly after the mixed stress:
	// every request in a rejection bucket or admitted, every admitted
	// request released into exactly one terminal bucket.
	checkAdmitLedger(t, snap)
}

func stressExact(s *Server, truth *matrix.Matrix, u, v int32) error {
	ans, _, err := dist(context.Background(), s, u, v, 0)
	if err != nil {
		return err
	}
	want := distToJSON(truth.At(int(u), int(v)))
	if !ans.Exact || ans.Dist != want {
		return fmt.Errorf("exact Dist(%d,%d) = %+v, want %d", u, v, ans, want)
	}
	return nil
}

// stressApprox checks the approximate contract: the answer brackets the
// true distance (truth <= Dist <= (1+tol)*truth when finite) and the
// reported bounds are themselves valid.
func stressApprox(s *Server, truth *matrix.Matrix, u, v int32, tol float64, seen *atomic.Int64) error {
	ans, _, err := dist(context.Background(), s, u, v, tol)
	if err != nil {
		return err
	}
	d := truth.At(int(u), int(v))
	want := distToJSON(d)
	if ans.Exact {
		if ans.Dist != want {
			return fmt.Errorf("exact-path approx Dist(%d,%d) = %d, want %d", u, v, ans.Dist, want)
		}
		return nil
	}
	seen.Add(1)
	if d == matrix.Inf {
		// No landmark connects the pair and the truth is unreachable: the
		// upper bound Inf (-1) is the correct inconclusive answer.
		if ans.Dist != -1 {
			return fmt.Errorf("approx Dist(%d,%d) = %d for unreachable pair", u, v, ans.Dist)
		}
		return nil
	}
	if ans.Lower > want || (ans.Upper != -1 && ans.Upper < want) {
		return fmt.Errorf("approx bounds [%d,%d] exclude truth %d for (%d,%d)", ans.Lower, ans.Upper, want, u, v)
	}
	if ans.Dist < want || float64(ans.Dist) > (1+tol)*float64(want) {
		return fmt.Errorf("approx Dist(%d,%d) = %d outside [%d, %g]", u, v, ans.Dist, want, (1+tol)*float64(want))
	}
	return nil
}

func stressBatch(h http.Handler, truth *matrix.Matrix, rng *rand.Rand, n int32) error {
	qs := make([]Query, 4)
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := range qs {
		qs[i] = Query{U: int32(rng.Intn(int(n))), V: int32(rng.Intn(int(n)))}
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"u":%d,"v":%d}`, qs[i].U, qs[i].V)
	}
	sb.WriteString(`]}`)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(sb.String())))
	if rec.Code == http.StatusTooManyRequests {
		return ErrBusy
	}
	if rec.Code != http.StatusOK {
		return fmt.Errorf("/batch status %d: %s", rec.Code, rec.Body)
	}
	var body batchBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		return err
	}
	if len(body.Answers) != len(qs) {
		return fmt.Errorf("/batch returned %d answers for %d queries", len(body.Answers), len(qs))
	}
	for i, a := range body.Answers {
		want := distToJSON(truth.At(int(qs[i].U), int(qs[i].V)))
		if a.Dist != want {
			return fmt.Errorf("/batch answer %d = %d, want %d", i, a.Dist, want)
		}
	}
	return nil
}

// stressPath validates a /path response structurally: consecutive vertices
// are adjacent, edge weights sum to the reported distance, and the
// distance matches the oracle.
func stressPath(h http.Handler, g *graph.Graph, truth *matrix.Matrix, u, v int32) error {
	rec := httptest.NewRecorder()
	target := fmt.Sprintf("/path?u=%d&v=%d", u, v)
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code == http.StatusTooManyRequests {
		return ErrBusy
	}
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s status %d: %s", target, rec.Code, rec.Body)
	}
	var body pathBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		return err
	}
	want := distToJSON(truth.At(int(u), int(v)))
	if body.Dist != want {
		return fmt.Errorf("%s dist = %d, want %d", target, body.Dist, want)
	}
	if want == -1 {
		if len(body.Path) != 0 {
			return fmt.Errorf("%s returned a path for an unreachable pair", target)
		}
		return nil
	}
	p := body.Path
	if len(p) == 0 || p[0] != u || p[len(p)-1] != v {
		return fmt.Errorf("%s path endpoints wrong: %v", target, p)
	}
	var total int64
	for i := 0; i+1 < len(p); i++ {
		// Multigraph: a shortest path always uses the lightest parallel arc.
		adj, wts := g.NeighborsW(p[i])
		step := int64(-1)
		for j, w := range adj {
			if w == p[i+1] {
				arcW := int64(1)
				if wts != nil {
					arcW = int64(wts[j])
				}
				if step < 0 || arcW < step {
					step = arcW
				}
			}
		}
		if step < 0 {
			return fmt.Errorf("%s path uses nonexistent arc %d->%d", target, p[i], p[i+1])
		}
		total += step
	}
	if total != want {
		return fmt.Errorf("%s path weighs %d, distance says %d", target, total, want)
	}
	return nil
}
