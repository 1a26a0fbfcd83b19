package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parapsp/internal/baseline"
	"parapsp/internal/dyn"
	"parapsp/internal/gen"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// applyReplica mirrors one committed server mutation onto a local graph
// replica, using the same copy-on-write splice the store uses — so the
// replica at version k is structurally identical to the server's snapshot
// at version k.
func applyReplica(t *testing.T, g *graph.Graph, op dyn.EdgeOp) *graph.Graph {
	t.Helper()
	var (
		ng  *graph.Graph
		err error
	)
	switch op.Op {
	case dyn.OpInsert, dyn.OpReweight:
		ng, _, _, err = g.WithArc(op.U, op.V, op.W)
	case dyn.OpDelete:
		ng, _, err = g.WithoutArc(op.U, op.V)
	}
	if err != nil {
		t.Fatalf("replica %v: %v", op, err)
	}
	return ng
}

// pickOp draws a mutation that is valid against the replica's current
// edge set, the same scheme the dyn differential tests use.
func pickOp(rng *rand.Rand, g *graph.Graph) dyn.EdgeOp {
	n := int32(g.N())
	for {
		u := rng.Int31n(n)
		v := rng.Int31n(n - 1)
		if v >= u {
			v++
		}
		w := matrix.Dist(1 + rng.Intn(9))
		_, exists := g.ArcWeight(u, v)
		switch rng.Intn(3) {
		case 0:
			if !exists {
				return dyn.EdgeOp{Op: dyn.OpInsert, U: u, V: v, W: w}
			}
		case 1:
			if exists {
				return dyn.EdgeOp{Op: dyn.OpDelete, U: u, V: v}
			}
		default:
			if exists {
				return dyn.EdgeOp{Op: dyn.OpReweight, U: u, V: v, W: w}
			}
		}
	}
}

// TestDynamicMutateWhileQueryDifferential is the headline chaos harness of
// the dynamic subsystem: query workers and one mutator hammer a single
// server concurrently — well over a thousand interleaved operations — and
// every completed answer is recorded together with the graph version it
// was pinned to. Afterwards the mutation log is replayed sequentially and
// every pinned version's ground truth recomputed with Floyd-Warshall:
// each answer must match the FW distance at exactly its pinned version,
// no matter how many mutations landed while the query was in flight.
// The run must be clean under -race, the row ledger must reconcile
// (lookups == T1 hits + T1 misses), and so must the mutation ledger
// (scanned == retagged + repaired + dropped).
func TestDynamicMutateWhileQueryDifferential(t *testing.T) {
	const (
		n          = 64
		queryGs    = 7
		queriesPer = 150 // 7*150 = 1050 query ops + 200 mutations interleaved
		mutations  = 200
	)
	g0, err := gen.PowerLawConfiguration(n, 2.5, 2, true, 29, gen.Weighting{Min: 1, Max: 9})
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	s := newTestServer(t, g0, Config{
		Workers:     2,
		CacheBytes:  rowsBudget(g0, 32), // < n: evictions happen alongside reconciliation
		Landmarks:   -1,                 // exact answers only: every answer is FW-checkable
		MaxInflight: 4 * queryGs,
	})

	type obsAnswer struct {
		u, v int32
		dist int64
		ver  uint64
	}
	perG := make([][]obsAnswer, queryGs)
	// Two-sided pacing keeps the sides genuinely interleaved regardless of
	// scheduler bursts: a query batch waits for ~1 mutation per 5 batches
	// issued, and a mutation waits for >= 3 batches answered since the
	// previous mutation. The allowances are compatible — when mutation i
	// commits, answered is at most 5i+5 (the worker-side cap at m=i), and
	// incrementing mutDone raises that cap to 5i+10, which covers the
	// next mutation's requirement of at most 5i+8 — so the lockstep can
	// never deadlock, while every published version gets answered queries
	// pinned to it instead of answers clustering on a few snapshots.
	var answered, batchesStarted, mutDone atomic.Int64
	var failed atomic.Bool
	ops := make([]dyn.EdgeOp, 0, mutations)

	var wg sync.WaitGroup
	for c := 0; c < queryGs; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(3000 + int64(id)))
			recs := make([]obsAnswer, 0, queriesPer*2)
			for op := 0; op < queriesPer; op++ {
				need := (batchesStarted.Add(1) - 1) / 5
				if need > mutations {
					need = mutations
				}
				for mutDone.Load() < need {
					if failed.Load() {
						return
					}
					runtime.Gosched()
				}
				k := 1 + rng.Intn(3)
				qs := make([]Query, k)
				for i := range qs {
					qs[i] = Query{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
				}
				as, _, ver, err := s.BatchPinned(context.Background(), qs, 0)
				if err != nil {
					failed.Store(true)
					t.Errorf("worker %d: BatchPinned: %v", id, err)
					return
				}
				for _, a := range as {
					recs = append(recs, obsAnswer{u: a.U, v: a.V, dist: a.Dist, ver: ver})
				}
				answered.Add(1)
			}
			perG[id] = recs
		}(c)
	}

	// Mutator: each committed op is mirrored onto a local replica (the
	// sequential ground truth the verification replays) and its
	// reconciliation ledger is checked per mutation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(77))
		replica := g0
		var last int64
		for i := 0; i < mutations; i++ {
			for answered.Load() < last+3 {
				if failed.Load() {
					return // don't spin forever if the query side died
				}
				runtime.Gosched()
			}
			op := pickOp(rng, replica)
			res, err := s.ApplyEdge(op)
			if err != nil {
				t.Errorf("mutation %d %v: %v", i, op, err)
				return
			}
			if res.Version != uint64(i+2) {
				t.Errorf("mutation %d published version %d, want %d", i, res.Version, i+2)
				return
			}
			if res.Scanned != res.Retagged+res.Repaired+res.Invalidated {
				t.Errorf("mutation %d ledger: scanned=%d != retagged=%d + repaired=%d + invalidated=%d",
					i, res.Scanned, res.Retagged, res.Repaired, res.Invalidated)
				return
			}
			replica = applyReplica(t, replica, op)
			ops = append(ops, op)
			// Read answered before raising the worker allowance: reading
			// after could capture the new allowance's batches and push the
			// next requirement past what workers are permitted to deliver.
			last = answered.Load()
			mutDone.Add(1)
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Drain before reading counters, as the non-mutating stress test does.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Replay the mutation log: version 1 is the seed graph, version k+1 is
	// the replica after the k-th op — bitwise the graphs the server served.
	graphs := make([]*graph.Graph, len(ops)+2)
	graphs[1] = g0
	cur := g0
	for i, op := range ops {
		cur = applyReplica(t, cur, op)
		graphs[i+2] = cur
	}

	// Differential check: FW ground truth per pinned version, computed
	// lazily for the versions that actually answered queries.
	truth := make(map[uint64]*matrix.Matrix)
	versions := make(map[uint64]int)
	total := 0
	for id, recs := range perG {
		for _, r := range recs {
			if r.ver == 0 || int(r.ver) >= len(graphs) || graphs[r.ver] == nil {
				t.Fatalf("worker %d answer pinned to unknown version %d", id, r.ver)
			}
			m := truth[r.ver]
			if m == nil {
				m = baseline.FloydWarshall(graphs[r.ver])
				truth[r.ver] = m
			}
			if want := distToJSON(m.At(int(r.u), int(r.v))); r.dist != want {
				t.Fatalf("answer (%d,%d)=%d at version %d, FW says %d",
					r.u, r.v, r.dist, r.ver, want)
			}
			versions[r.ver]++
			total++
		}
	}
	t.Logf("verified %d answers across %d distinct pinned versions (%d mutations)",
		total, len(versions), len(ops))
	if total == 0 {
		t.Fatal("no answers recorded")
	}
	if len(versions) < 50 {
		t.Fatalf("answers span only %d versions; mutations did not interleave with queries", len(versions))
	}

	// Ledgers (the mutating extension of the stress-test reconciliation):
	// row counters stay exact under mutation, and the dynamic ledger
	// accounts for every row the reconciler examined in every tier.
	snap := s.Metrics().Snapshot()
	checkRowLedger(t, snap)
	if got := snap["serve.dyn.mutations"]; got != mutations {
		t.Fatalf("serve.dyn.mutations = %d, want %d", got, mutations)
	}
	if snap["serve.store.dyn.retagged"] == 0 || snap["serve.store.dyn.dropped"] == 0 {
		t.Fatalf("reconciler never exercised retag (%d) or invalidate (%d)",
			snap["serve.store.dyn.retagged"], snap["serve.store.dyn.dropped"])
	}
	if snap["serve.store.dyn.scanned"] != snap["serve.store.dyn.retagged"]+
		snap["serve.store.dyn.repaired"]+snap["serve.store.dyn.dropped"] {
		t.Fatalf("store dyn ledger does not reconcile: scanned=%d retagged=%d repaired=%d dropped=%d",
			snap["serve.store.dyn.scanned"], snap["serve.store.dyn.retagged"],
			snap["serve.store.dyn.repaired"], snap["serve.store.dyn.dropped"])
	}
}

// TestVersionPinnedCacheSemantics pins the cache isolation contract: a
// row cached at version v is never touched by the v+1 reconcile — readers
// pinned to v keep seeing exactly v's distances — while the repaired v+1
// copy answers new queries without a re-solve.
func TestVersionPinnedCacheSemantics(t *testing.T) {
	const n = 32
	g, err := gen.PowerLawConfiguration(n, 2.5, 2, true, 41, gen.Weighting{Min: 2, Max: 9})
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	s := newTestServer(t, g, Config{Workers: 1, CacheBytes: rowsBudget(g, n), Landmarks: -1})
	ctx := context.Background()
	truth1 := baseline.FloydWarshall(g)

	src := int32(0)
	as, _, ver, err := s.BatchPinned(ctx, []Query{{U: src, V: int32(n - 1)}}, 0)
	if err != nil || ver != 1 {
		t.Fatalf("seed query: as=%v ver=%d err=%v", as, ver, err)
	}

	// Find an insert that provably improves src's cached row, so the
	// reconcile takes the repair path (not just a retag).
	row1 := truth1.Row(int(src))
	var op dyn.EdgeOp
found:
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			if u == v {
				continue
			}
			if _, exists := g.ArcWeight(u, v); exists {
				continue
			}
			if _, exists := g.ArcWeight(v, u); exists {
				continue // undirected: the splice writes both directions
			}
			op = dyn.EdgeOp{Op: dyn.OpInsert, U: u, V: v, W: 1}
			ch := dyn.Change{Op: op, Kind: dyn.KindImprove}
			if dyn.Classify(row1, ch, true) == dyn.RowRepairable {
				break found
			}
			op = dyn.EdgeOp{}
		}
	}
	if op.Op == 0 {
		t.Fatal("no row-improving insert found in test graph")
	}

	missesBefore := hotMisses(s.Metrics().Snapshot())
	res, err := s.ApplyEdge(op)
	if err != nil {
		t.Fatalf("ApplyEdge(%v): %v", op, err)
	}
	if res.Version != 2 || res.Repaired == 0 {
		t.Fatalf("mutation result %+v: want version 2 with a repaired row", res)
	}

	g2 := applyReplica(t, g, op)
	truth2 := baseline.FloydWarshall(g2)
	changed := false
	for x := 0; x < n; x++ {
		if truth2.At(int(src), x) != truth1.At(int(src), x) {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("chosen insert did not actually change src's distances")
	}

	// The version-1 row is untouched: exactly version-1 distances, even
	// where version 2 differs — a reader pinned to v never observes v+1.
	old := residentRow(t, s, src, 1)
	for x := 0; x < n; x++ {
		if old[x] != truth1.At(int(src), x) {
			t.Fatalf("version-1 cached row mutated at %d: %d != %d", x, old[x], truth1.At(int(src), x))
		}
	}
	// The version-2 row was repaired pre-publish: exact for the new
	// graph, and answering from it is a hit, not a re-solve.
	repaired := residentRow(t, s, src, 2)
	for x := 0; x < n; x++ {
		if repaired[x] != truth2.At(int(src), x) {
			t.Fatalf("repaired row wrong at %d: %d != %d", x, repaired[x], truth2.At(int(src), x))
		}
	}
	as, _, ver, err = s.BatchPinned(ctx, []Query{{U: src, V: int32(n - 1)}}, 0)
	if err != nil || ver != 2 {
		t.Fatalf("post-mutation query: ver=%d err=%v", ver, err)
	}
	if want := distToJSON(truth2.At(int(src), n-1)); as[0].Dist != want {
		t.Fatalf("post-mutation answer %d, want %d", as[0].Dist, want)
	}
	if got := hotMisses(s.Metrics().Snapshot()); got != missesBefore {
		t.Fatalf("repaired row did not serve as a hit: misses %d -> %d", missesBefore, got)
	}
}

// residentRow reads src's T1 row at version ver straight from the row
// store, failing the test if the row is not hot (a solve or a promote
// would mean the reconcile did not keep or carry it).
func residentRow(t *testing.T, s *Server, src int32, ver uint64) []matrix.Dist {
	t.Helper()
	before := s.Metrics().Snapshot()["serve.store.t1_hits"]
	rows, err := s.rows.Load(context.Background(), ver, 0, []int32{src}, func([]int32) ([][]matrix.Dist, error) {
		return nil, fmt.Errorf("row %d at version %d is not resident", src, ver)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Snapshot()["serve.store.t1_hits"]; got != before+1 {
		t.Fatalf("row %d at version %d did not come from T1", src, ver)
	}
	return rows[0]
}

// TestEdgeEndpoint exercises the HTTP surface of mutations: versions in
// headers, conflict and parse-error status codes, and the monotonic
// version on every response.
func TestEdgeEndpoint(t *testing.T) {
	g := testGraph(t, 24, 31)
	s := newTestServer(t, g, Config{Workers: 1, Landmarks: -1})
	h := s.Handler()

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/edge", strings.NewReader(body)))
		return rec
	}

	// Find an absent pair to insert.
	var u, v int32 = -1, -1
findPair:
	for a := int32(0); int(a) < g.N(); a++ {
		for b := a + 1; int(b) < g.N(); b++ {
			if _, ok := g.ArcWeight(a, b); !ok {
				u, v = a, b
				break findPair
			}
		}
	}
	if u < 0 {
		t.Fatal("no absent pair")
	}

	rec := post(fmt.Sprintf(`{"op":"insert","u":%d,"v":%d,"w":3}`, u, v))
	if rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Parapsp-Graph-Version"); got != "2" {
		t.Fatalf("insert version header %q, want 2", got)
	}
	var res ApplyResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Version != 2 || res.Kind != "improve" {
		t.Fatalf("insert body %+v err=%v", res, err)
	}

	// Conflicts are 409, malformed bodies 400; both carry a version.
	if rec = post(fmt.Sprintf(`{"op":"insert","u":%d,"v":%d,"w":5}`, u, v)); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate insert status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Parapsp-Graph-Version"); got != "2" {
		t.Fatalf("conflict version header %q, want 2", got)
	}
	for _, bad := range []string{
		`{"op":"upsert","u":1,"v":2,"w":1}`,
		`{"op":"insert","u":1}`,
		`{"op":"insert","u":1,"v":1,"w":1}`,
		`{"op":"delete","u":1,"v":2,"w":4}`,
		`{"op":"insert","u":1,"v":2,"w":0}`,
		`{"op":"insert","u":1,"v":999,"w":1}`,
		`not json`,
	} {
		if rec = post(bad); rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q status %d, want 400", bad, rec.Code)
		}
	}

	// A query response reports the pinned (current) version too.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/dist?u=%d&v=%d", u, v), nil))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Parapsp-Graph-Version") != "2" {
		t.Fatalf("dist status %d version %q", rec.Code, rec.Header().Get("X-Parapsp-Graph-Version"))
	}

	// Delete bumps to 3 and /healthz agrees.
	if rec = post(fmt.Sprintf(`{"op":"delete","u":%d,"v":%d}`, u, v)); rec.Code != http.StatusOK {
		t.Fatalf("delete status %d: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hb healthBody
	if err := json.Unmarshal(rec.Body.Bytes(), &hb); err != nil || hb.GraphVersion != 3 {
		t.Fatalf("healthz %+v err=%v, want graph_version 3", hb, err)
	}
}

// TestMutateConcurrentWriters pins that ApplyEdge needs no lock of its
// own: dyn.Store.Mutate holds its mutex across the reconcile and the
// publish, so eight writers reweighting distinct edges at once, beside two
// readers, publish eight distinct consecutive versions, and the final rows
// equal Dijkstra on the graph with every reweight applied.
func TestMutateConcurrentWriters(t *testing.T) {
	g := testGraph(t, 200, 31)
	s := newTestServer(t, g, Config{Workers: 2, CacheBytes: rowsBudget(g, 16), Landmarks: -1})
	ctx := context.Background()
	for u := int32(0); u < 32; u++ { // resident rows, so every write reconciles
		if _, _, err := dist(ctx, s, u, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var ops []dyn.EdgeOp
	taken := map[[2]int32]bool{}
	for u := int32(0); len(ops) < 8; u++ {
		for _, v := range g.Neighbors(u) {
			if key := [2]int32{min(u, v), max(u, v)}; !taken[key] {
				taken[key] = true
				ops = append(ops, dyn.EdgeOp{Op: dyn.OpReweight, U: u, V: v, W: matrix.Dist(2 + len(ops))})
				break
			}
		}
	}

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := int32(0); r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := int32(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := dist(ctx, s, (7*i+r)%32, i%int32(g.N()), 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	versions := make(chan uint64, len(ops))
	for _, op := range ops {
		writers.Add(1)
		go func() {
			defer writers.Done()
			res, err := s.ApplyEdge(op)
			if err != nil {
				t.Errorf("ApplyEdge(%v): %v", op, err)
				return
			}
			versions <- res.Version
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(versions)
	seen := map[uint64]bool{}
	for v := range versions {
		seen[v] = true
	}
	for v := uint64(2); v <= uint64(1+len(ops)); v++ {
		if !seen[v] {
			t.Fatalf("versions %v: %d was never published", seen, v)
		}
	}

	final := g
	for _, op := range ops {
		final = applyReplica(t, final, op)
	}
	row := make([]matrix.Dist, g.N())
	for u := int32(0); u < 32; u++ {
		baseline.DijkstraSSSP(final, u, row)
		for v := int32(0); v < int32(g.N()); v += 11 {
			ans, _, err := dist(ctx, s, u, v, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := distToJSON(row[v]); ans.Dist != want {
				t.Fatalf("after the writes: dist(%d,%d) = %d, want %d", u, v, ans.Dist, want)
			}
		}
	}
}
