package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"parapsp/internal/graph"
	"parapsp/internal/serve"
)

// bootShards starts real serve shards over the same graph and returns a
// router in front of them plus the shard base URLs for direct mutation.
func bootShards(t *testing.T, g *graph.Graph, count int) (*Router, []string) {
	t.Helper()
	var shards []Shard
	var urls []string
	for i := 0; i < count; i++ {
		s, err := serve.New(g, serve.Config{
			Workers: 1, CacheBytes: int64(g.N()) * int64(g.N()) * 4, MaxBatch: g.N(), Landmarks: -1,
			ShardID: fmt.Sprintf("s%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		h := httptest.NewServer(s.Handler())
		t.Cleanup(h.Close)
		urls = append(urls, h.URL)
		shards = append(shards, Shard{ID: fmt.Sprintf("s%d", i), Addr: strings.TrimPrefix(h.URL, "http://")})
	}
	r, err := New(Config{Shards: shards, MaxBatch: g.N()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, urls
}

// postEdge applies one mutation directly to a single shard, simulating
// the propagation window where an update has reached some replicas only.
func postEdge(t *testing.T, shardURL, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(shardURL+"/edge", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /edge: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestRouterRefusesVersionSkewMerge pins the cluster half of the version
// contract: a /batch whose sub-answers come from shards at different
// graph versions is refused with 409 (counted as cluster.version_skew)
// instead of merged, and merges succeed again — stamped with the common
// version — once every contributing replica has converged.
func TestRouterRefusesVersionSkewMerge(t *testing.T) {
	g := testGraph(t, 60, 9)
	r, urls := bootShards(t, g, 2)

	// Two sources whose primary owners are different shards, so a batch
	// containing both genuinely fans out.
	rg := r.mem.current()
	u1 := int32(0)
	u2 := int32(-1)
	for v := int32(1); int(v) < g.N(); v++ {
		if rg.owners(v)[0].ID != rg.owners(u1)[0].ID {
			u2 = v
			break
		}
	}
	if u2 < 0 {
		t.Fatal("ring assigned every source to one shard")
	}

	// An absent pair to insert.
	var a, b int32 = -1, -1
findPair:
	for x := int32(0); int(x) < g.N(); x++ {
		for y := x + 1; int(y) < g.N(); y++ {
			if _, ok := g.ArcWeight(x, y); !ok {
				a, b = x, y
				break findPair
			}
		}
	}
	if a < 0 {
		t.Fatal("no absent pair")
	}
	edge := fmt.Sprintf(`{"op":"insert","u":%d,"v":%d,"w":1}`, a, b)

	batch := fmt.Sprintf(`{"queries":[{"u":%d,"v":%d},{"u":%d,"v":%d}]}`, u1, u2, u2, u1)
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(batch)))
		return rec
	}

	// Converged at version 1: the merge succeeds and reports it.
	if rec := post(); rec.Code != http.StatusOK {
		t.Fatalf("converged batch status %d: %s", rec.Code, rec.Body)
	} else if got := rec.Header().Get(versionHeader); got != "1" {
		t.Fatalf("converged batch version header %q, want 1", got)
	}

	// Mutate shard 0 only: replicas now diverge (v2 vs v1).
	if resp := postEdge(t, urls[0], edge); resp.StatusCode != http.StatusOK {
		t.Fatalf("shard 0 /edge status %d", resp.StatusCode)
	}
	rec := post()
	if rec.Code != http.StatusConflict {
		t.Fatalf("skewed batch status %d, want 409: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("skew 409 missing Retry-After")
	}
	if got := r.Metrics().Snapshot()["cluster.version_skew"]; got != 1 {
		t.Fatalf("cluster.version_skew = %d, want 1", got)
	}

	// Propagate the same mutation to shard 1: converged again at v2.
	if resp := postEdge(t, urls[1], edge); resp.StatusCode != http.StatusOK {
		t.Fatalf("shard 1 /edge status %d", resp.StatusCode)
	}
	if rec := post(); rec.Code != http.StatusOK {
		t.Fatalf("re-converged batch status %d: %s", rec.Code, rec.Body)
	} else if got := rec.Header().Get(versionHeader); got != "2" {
		t.Fatalf("re-converged batch version header %q, want 2", got)
	}

	// Single-shard routes always pass the shard's version through; skew
	// never blocks them (only merges can mix versions).
	rec = httptest.NewRecorder()
	target := fmt.Sprintf("/dist?u=%d&v=%d", u1, u2)
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK || rec.Header().Get(versionHeader) != "2" {
		t.Fatalf("/dist status %d version %q", rec.Code, rec.Header().Get(versionHeader))
	}

	// The prober records per-shard versions for /healthz observability.
	r.probeOnce()
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var ch clusterHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &ch); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	for _, sh := range ch.Shards {
		if sh.GraphVersion != 2 {
			t.Fatalf("healthz shard %s graph_version %d, want 2", sh.ID, sh.GraphVersion)
		}
	}
}
