package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHealthzClusterPayload pins the /healthz fields a parapsprouter's
// health prober consumes: shard identity, admission load, cache hit rate,
// and — most importantly — the draining flag, which must flip the moment
// Shutdown begins while the handler still answers, so the router can pull
// the shard from its ring before clients see the final 503s.
func TestHealthzClusterPayload(t *testing.T) {
	g := testGraph(t, 64, 11)
	s := newTestServer(t, g, Config{Workers: 1, CacheBytes: rowsBudget(g, 16), ShardID: "s7"})
	h := s.Handler()

	// Same row twice: the second lookup is a cache hit, so the reported
	// hit rate must land strictly between 0 and 1.
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dist?u=3&v=17", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("warmup query %d: status %d", i, rec.Code)
		}
	}

	getHealth := func() healthBody {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/healthz status %d", rec.Code)
		}
		var body healthBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("/healthz decode: %v", err)
		}
		return body
	}

	live := getHealth()
	if live.Status != "ok" || live.Draining {
		t.Fatalf("live shard reports %+v", live)
	}
	if live.ShardID != "s7" {
		t.Fatalf("shard id %q, want the configured identity", live.ShardID)
	}
	if live.Vertices != 64 {
		t.Fatalf("vertices %d, want 64", live.Vertices)
	}
	if live.Inflight != 0 {
		t.Fatalf("inflight %d with no request running", live.Inflight)
	}
	if live.CacheHitRate <= 0 || live.CacheHitRate >= 1 {
		t.Fatalf("cache hit rate %v after one hit and one miss", live.CacheHitRate)
	}
	if live.CachedRows == 0 {
		t.Fatal("no cached rows after a solved query")
	}

	// The wire names are the prober's contract; renaming a field would
	// silently break ring management.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"status", "shard_id", "vertices", "inflight", "draining", "cache_hit_rate"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("/healthz payload missing %q: %s", key, rec.Body)
		}
	}

	// Drain: the handler keeps answering /healthz with draining=true
	// (queries now refuse), which is what lets the router act first.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	drained := getHealth()
	if drained.Status != "draining" || !drained.Draining {
		t.Fatalf("draining shard reports %+v", drained)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dist?u=3&v=17", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining shard answered a query with %d, want 503", rec.Code)
	}
}
