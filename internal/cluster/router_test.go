package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parapsp/internal/serve"
)

// fakeShard is a scriptable stand-in for one parapspd replica: it answers
// /dist and /batch with the deterministic dist = u+v (so merge
// correctness is checkable without a solver) and /healthz with a
// controllable draining flag, and can be slowed down or forced to fail.
type fakeShard struct {
	id       string
	srv      *httptest.Server
	delay    atomic.Int64 // ns added before answering queries
	failWith atomic.Int64 // non-zero: answer queries with this status
	draining atomic.Bool
	vertices int64
	queries  atomic.Int64 // non-healthz requests served
}

func newFakeShard(t *testing.T, id string, vertices int64) *fakeShard {
	t.Helper()
	f := &fakeShard{id: id, vertices: vertices}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "draining": f.draining.Load(), "vertices": f.vertices,
		})
	})
	wait := func(r *http.Request) bool {
		if d := f.delay.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return false
			}
		}
		return true
	}
	mux.HandleFunc("/dist", func(w http.ResponseWriter, r *http.Request) {
		f.queries.Add(1)
		if !wait(r) {
			return
		}
		if code := f.failWith.Load(); code != 0 {
			w.WriteHeader(int(code))
			return
		}
		u, v, _, err := serve.ParseDistQuery(r.URL.Query(), int(f.vertices))
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.Header().Set(solverHeader, "fake/"+f.id)
		json.NewEncoder(w).Encode(serve.Answer{U: u, V: v, Dist: int64(u) + int64(v), Exact: true})
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		f.queries.Add(1)
		if !wait(r) {
			return
		}
		if code := f.failWith.Load(); code != 0 {
			w.WriteHeader(int(code))
			return
		}
		var wire batchWire
		if err := json.NewDecoder(r.Body).Decode(&wire); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		out := batchAnswers{Answers: make([]serve.Answer, len(wire.Queries))}
		for i, q := range wire.Queries {
			out.Answers[i] = serve.Answer{U: q.U, V: q.V, Dist: int64(q.U) + int64(q.V), Exact: true}
		}
		w.Header().Set(solverHeader, "fake/"+f.id)
		json.NewEncoder(w).Encode(out)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeShard) shard() Shard {
	return Shard{ID: f.id, Addr: strings.TrimPrefix(f.srv.URL, "http://")}
}

// newFakeCluster boots n fake shards and a router over them (probing not
// started; tests opt in with r.Start()).
func newFakeCluster(t *testing.T, n int, cfg Config) (*Router, []*fakeShard) {
	t.Helper()
	shards := make([]*fakeShard, n)
	for i := range shards {
		shards[i] = newFakeShard(t, fmt.Sprintf("s%d", i), 1024)
		cfg.Shards = append(cfg.Shards, shards[i].shard())
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, shards
}

// ownedBy finds a source whose primary owner is the given shard id.
func ownedBy(t *testing.T, r *Router, id string) int32 {
	t.Helper()
	for src := int32(0); src < 4096; src++ {
		if owners := r.mem.current().owners(src); len(owners) > 0 && owners[0].ID == id {
			return src
		}
	}
	t.Fatalf("no source owned by %s in 4096 tries", id)
	return -1
}

// checkLedger asserts the attempt-accounting invariant the chaos test
// also verifies end to end: routed == merged + hedge_cancelled + failed.
func checkLedger(t *testing.T, r *Router) {
	t.Helper()
	snap := r.cfg.Metrics.Snapshot()
	if snap["cluster.routed"] != snap["cluster.merged"]+snap["cluster.hedge_cancelled"]+snap["cluster.failed"] {
		t.Fatalf("attempt ledger does not balance: routed=%d merged=%d hedge_cancelled=%d failed=%d",
			snap["cluster.routed"], snap["cluster.merged"], snap["cluster.hedge_cancelled"], snap["cluster.failed"])
	}
}

func routerGet(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

func TestRouterRoutesToOwner(t *testing.T) {
	r, _ := newFakeCluster(t, 3, Config{HedgeAfter: time.Minute}) // hedging out of the picture
	h := r.Handler()
	for src := int32(0); src < 32; src++ {
		owner := r.mem.current().owners(src)[0].ID
		rec := routerGet(h, fmt.Sprintf("/dist?u=%d&v=7", src))
		if rec.Code != http.StatusOK {
			t.Fatalf("u=%d status %d: %s", src, rec.Code, rec.Body)
		}
		if got := rec.Header().Get(shardHeader); got != owner {
			t.Fatalf("u=%d answered by %s, ring owner is %s", src, got, owner)
		}
		if got := rec.Header().Get(solverHeader); got != "fake/"+owner {
			t.Fatalf("u=%d solver header %q not passed through", src, got)
		}
		var ans serve.Answer
		if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil || ans.Dist != int64(src)+7 {
			t.Fatalf("u=%d answer %+v (err %v), want dist %d", src, ans, err, int64(src)+7)
		}
	}
	checkLedger(t, r)
}

func TestRouterHedgesSlowOwner(t *testing.T) {
	r, shards := newFakeCluster(t, 3, Config{HedgeAfter: 5 * time.Millisecond})
	slow := shards[0]
	slow.delay.Store(int64(2 * time.Second))
	src := ownedBy(t, r, slow.id)
	start := time.Now()
	rec := routerGet(r.Handler(), fmt.Sprintf("/dist?u=%d&v=1", src))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge did not rescue the request: took %s", elapsed)
	}
	if got := rec.Header().Get(shardHeader); got == slow.id {
		t.Fatalf("slow owner %s still answered", got)
	}
	snap := r.cfg.Metrics.Snapshot()
	if snap["cluster.hedges"] == 0 {
		t.Fatal("no hedge launched against a 2s-slow owner with a 5ms hedge delay")
	}
	if snap["cluster.hedge_cancelled"] == 0 {
		t.Fatal("the losing attempt was not accounted as hedge_cancelled")
	}
	checkLedger(t, r)
}

func TestRouterRetriesFailedOwner(t *testing.T) {
	r, shards := newFakeCluster(t, 3, Config{HedgeAfter: time.Minute}) // hedging out of the picture
	failing := shards[1]
	failing.failWith.Store(http.StatusServiceUnavailable)
	src := ownedBy(t, r, failing.id)
	rec := routerGet(r.Handler(), fmt.Sprintf("/dist?u=%d&v=2", src))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(shardHeader); got == failing.id {
		t.Fatalf("failing owner %s answered", got)
	}
	snap := r.cfg.Metrics.Snapshot()
	if snap["cluster.retries"] == 0 || snap["cluster.failed"] == 0 {
		t.Fatalf("retry path not exercised: retries=%d failed=%d", snap["cluster.retries"], snap["cluster.failed"])
	}
	checkLedger(t, r)
}

func TestRouterAllOwnersDown503(t *testing.T) {
	r, shards := newFakeCluster(t, 3, Config{HedgeAfter: time.Millisecond})
	for _, f := range shards {
		f.failWith.Store(http.StatusInternalServerError)
	}
	rec := routerGet(r.Handler(), "/dist?u=3&v=4")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	snap := r.cfg.Metrics.Snapshot()
	if snap["cluster.unavailable"] == 0 {
		t.Fatal("unavailable counter not incremented")
	}
	checkLedger(t, r)
}

func TestRouterShardClientErrorPassesThrough(t *testing.T) {
	r, _ := newFakeCluster(t, 2, Config{})
	// v out of the fake shard's range but within the router's (order
	// unknown without probes): the shard's 400 must come back verbatim,
	// not be retried into a 503.
	rec := routerGet(r.Handler(), "/dist?u=1&v=999999")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want shard 400 passed through", rec.Code)
	}
	snap := r.cfg.Metrics.Snapshot()
	if snap["cluster.retries"] != 0 {
		t.Fatalf("a 4xx was retried %d times", snap["cluster.retries"])
	}
	checkLedger(t, r)
}

func TestRouterTransportFailureEvictsShard(t *testing.T) {
	r, shards := newFakeCluster(t, 3, Config{HedgeAfter: time.Minute})
	dead := shards[2]
	src := ownedBy(t, r, dead.id)
	dead.srv.Close() // SIGKILL stand-in: connections now refused
	rec := routerGet(r.Handler(), fmt.Sprintf("/dist?u=%d&v=5", src))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d after owner death: %s", rec.Code, rec.Body)
	}
	if got := r.Healthy(); got != 2 {
		t.Fatalf("%d healthy shards after transport failure, want 2 (immediate eviction)", got)
	}
	// The very next request for the same source routes straight to the
	// failover owner: no additional failed attempt.
	before := r.cfg.Metrics.Snapshot()["cluster.failed"]
	rec = routerGet(r.Handler(), fmt.Sprintf("/dist?u=%d&v=6", src))
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up status %d", rec.Code)
	}
	if after := r.cfg.Metrics.Snapshot()["cluster.failed"]; after != before {
		t.Fatalf("follow-up request still burned %d attempts on the evicted shard", after-before)
	}
	checkLedger(t, r)
}

func TestRouterBatchMergesAcrossShards(t *testing.T) {
	r, _ := newFakeCluster(t, 3, Config{})
	var qs []string
	for src := int32(0); src < 24; src++ {
		qs = append(qs, fmt.Sprintf(`{"u":%d,"v":%d}`, src, src+1))
	}
	body := `{"queries":[` + strings.Join(qs, ",") + `]}`
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out batchAnswers
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Answers) != 24 {
		t.Fatalf("%d answers for 24 queries", len(out.Answers))
	}
	for i, a := range out.Answers {
		if a.U != int32(i) || a.Dist != int64(2*i+1) {
			t.Fatalf("answer %d out of order or wrong: %+v", i, a)
		}
	}
	if ids := rec.Header().Get(shardHeader); !strings.Contains(ids, ",") {
		t.Fatalf("24 sources landed on one shard (%q); ring balance should spread them", ids)
	}
	checkLedger(t, r)
}

func TestRouterDeadlineNeverHangs(t *testing.T) {
	r, shards := newFakeCluster(t, 2, Config{HedgeAfter: time.Minute})
	for _, f := range shards {
		f.delay.Store(int64(5 * time.Second))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/dist?u=1&v=2", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	r.Handler().ServeHTTP(rec, req)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("request outlived its deadline by %s", elapsed)
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rec.Code)
	}
	checkLedger(t, r) // abandoned attempts must be accounted as failed
}

// TestRouterDrainingShardLeavesRing pins the drain choreography end to
// end with a real serve.Server shard: the /healthz draining flag (new in
// this PR) takes the shard out of the ring before clients ever see its
// final 503s.
func TestRouterDrainingShardLeavesRing(t *testing.T) {
	g := testGraph(t, 64, 11)
	mkShard := func(id string) (*serve.Server, *httptest.Server) {
		s, err := serve.New(g, serve.Config{Workers: 1, CacheBytes: 64 * int64(g.N()) * 4, Landmarks: -1, ShardID: id})
		if err != nil {
			t.Fatal(err)
		}
		h := httptest.NewServer(s.Handler())
		t.Cleanup(h.Close)
		return s, h
	}
	sA, hA := mkShard("a")
	sB, hB := mkShard("b")
	defer sA.Shutdown(context.Background())
	r, err := New(Config{
		Shards: []Shard{
			{ID: "a", Addr: strings.TrimPrefix(hA.URL, "http://")},
			{ID: "b", Addr: strings.TrimPrefix(hB.URL, "http://")},
		},
		ProbeInterval: 10 * time.Millisecond,
		HedgeAfter:    time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start()
	srcB := ownedBy(t, r, "b")

	// Drain B. Its httptest listener keeps serving (we did not call
	// Serve), so the handler still answers: /healthz with draining=true,
	// queries with 503 — exactly a real shard mid-drain.
	if err := sB.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hB.URL + fmt.Sprintf("/dist?u=%d&v=1", srcB))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining shard answered %d directly, want its honest 503", resp.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for r.Healthy() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("prober never removed the draining shard from the ring")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Post-removal, B's sources route to A with zero failed attempts:
	// the ring update beat the 503s.
	before := r.cfg.Metrics.Snapshot()["cluster.failed"]
	for i := 0; i < 20; i++ {
		rec := routerGet(r.Handler(), fmt.Sprintf("/dist?u=%d&v=%d", srcB, i))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d after drain removal: status %d", i, rec.Code)
		}
		if got := rec.Header().Get(shardHeader); got != "a" {
			t.Fatalf("query %d answered by %q, want the surviving shard", i, got)
		}
	}
	if after := r.cfg.Metrics.Snapshot()["cluster.failed"]; after != before {
		t.Fatalf("%d failed attempts after the draining shard left the ring", after-before)
	}
	checkLedger(t, r)
}

// TestRouterConcurrentMembershipNoLeak is the race/leak acceptance test:
// concurrent membership flips (a shard marked unhealthy while hedged
// requests are in flight) must leave the ring consistent and leak no
// goroutines, re-using the shutdown_test goroutine-baseline pattern.
func TestRouterConcurrentMembershipNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		r, shards := newFakeCluster(t, 4, Config{
			HedgeAfter:    2 * time.Millisecond,
			ProbeInterval: 5 * time.Millisecond,
		})
		r.Start()
		h := r.Handler()
		stop := make(chan struct{})
		var chaosWG, wg sync.WaitGroup
		// Chaos goroutine: flip shard health both through the probe path
		// (draining flags) and directly, while traffic is in flight.
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				case <-time.After(3 * time.Millisecond):
				}
				f := shards[i%len(shards)]
				f.draining.Store(i%2 == 0)
				r.setShardHealth(shards[(i+1)%len(shards)].id, i%3 != 0)
				i++
			}
		}()
		// Traffic goroutines: hammer queries; any status is acceptable
		// (membership churn means 503s are honest) but hangs are not.
		for c := 0; c < 6; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for op := 0; op < 60; op++ {
					rec := routerGet(h, fmt.Sprintf("/dist?u=%d&v=%d", (c*61+op)%512, op%512))
					if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable {
						t.Errorf("unexpected status %d", rec.Code)
						return
					}
				}
			}(c)
		}
		// Wait for traffic to finish, then stop the chaos.
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("workload deadlocked under membership churn")
		}
		close(stop)
		chaosWG.Wait()

		// The admission ledger must reconcile exactly even under
		// membership churn — every admitted request released once.
		checkRouterAdmitLedger(t, h)

		// Ring consistency after the dust settles: healthy flags and ring
		// contents agree, owner chains are duplicate-free and complete.
		for _, f := range shards {
			f.draining.Store(false)
			f.failWith.Store(0)
		}
		table, healthy := r.mem.snapshot()
		live := map[string]bool{}
		for i := range table {
			if healthy[i] {
				live[table[i].ID] = true
			}
		}
		rg := r.mem.current()
		if len(rg.shards) != len(live) {
			t.Fatalf("ring holds %d shards, membership says %d healthy", len(rg.shards), len(live))
		}
		for _, sh := range rg.shards {
			if !live[sh.ID] {
				t.Fatalf("ring holds %s but membership marks it unhealthy", sh.ID)
			}
		}
		for src := int32(0); src < 256; src++ {
			owners := rg.owners(src)
			if len(owners) != len(live) {
				t.Fatalf("owners(%d) covers %d of %d healthy shards", src, len(owners), len(live))
			}
			seen := map[string]bool{}
			for _, sh := range owners {
				if seen[sh.ID] || !live[sh.ID] {
					t.Fatalf("owners(%d) inconsistent: %v vs healthy %v", src, owners, live)
				}
				seen[sh.ID] = true
			}
		}
		checkLedger(t, r)
		r.Close()
		for _, f := range shards {
			f.srv.Close()
		}
	}()

	// Goroutine baseline: everything the router and its requests started
	// has exited (the leak check from shutdown_test, verbatim pattern).
	leakDeadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d now vs %d at baseline\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterGraphOrderMismatch: a replica serving a different graph is a
// config error the prober must catch — it can never contribute rows.
func TestRouterGraphOrderMismatch(t *testing.T) {
	good := newFakeShard(t, "good", 1024)
	bad := newFakeShard(t, "bad", 999) // different graph order
	r, err := New(Config{
		Shards:        []Shard{good.shard(), bad.shard()},
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start()
	deadline := time.Now().Add(5 * time.Second)
	for r.Healthy() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("mismatched shard never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r.cfg.Metrics.Snapshot()["cluster.probe_mismatch"] == 0 {
		t.Fatal("probe_mismatch counter not incremented")
	}
	if n := r.n.Load(); n != 1024 && n != 999 {
		t.Fatalf("adopted graph order %d", n)
	}
}
