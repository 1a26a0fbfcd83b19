package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"parapsp/internal/admit"
	"parapsp/internal/serve"
)

// tierShard is a fake shard that records the admission headers it
// receives and can be switched into per-client quota rejection, so the
// router's tier/client forwarding and its quota-verdict passthrough can
// be observed from both sides of the hop.
type tierShard struct {
	id          string
	srv         *httptest.Server
	queries     atomic.Int64
	quotaReject atomic.Bool
	lastTier    atomic.Value // string
	lastClient  atomic.Value // string
}

func newTierShard(t *testing.T, id string) *tierShard {
	t.Helper()
	f := &tierShard{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"status": "ok", "vertices": 1024})
	})
	mux.HandleFunc("/dist", func(w http.ResponseWriter, r *http.Request) {
		f.queries.Add(1)
		f.lastTier.Store(r.Header.Get(admit.DefaultTierHeader))
		f.lastClient.Store(r.Header.Get(admit.ClientHeader))
		if f.quotaReject.Load() {
			w.Header().Set(admit.RejectHeader, "quota")
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		u, v, _, err := serve.ParseDistQuery(r.URL.Query(), 1024)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.Header().Set(serve.SolverHeader, "fake/"+f.id)
		json.NewEncoder(w).Encode(serve.Answer{U: u, V: v, Dist: int64(u) + int64(v), Exact: true})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *tierShard) shard() Shard {
	return Shard{ID: f.id, Addr: strings.TrimPrefix(f.srv.URL, "http://")}
}

// TestRouterTierPassthrough checks the router's half of the tier
// contract: a client-supplied tier (via a custom -tier-header) and client
// identity reach the shard on the canonical headers, the response echoes
// the admitted tier, and a shard-side per-client quota verdict passes
// through the router untouched — same status, same reject marker, same
// Retry-After, and no retry against the other replica (a quota verdict is
// deterministic for the client, so hunting a second opinion would defeat
// the shard's policy). The router's admission ledger, scraped from its
// /metrics endpoint, must reconcile afterwards.
func TestRouterTierPassthrough(t *testing.T) {
	a, b := newTierShard(t, "s0"), newTierShard(t, "s1")
	r, err := New(Config{
		Shards:     []Shard{a.shard(), b.shard()},
		TierHeader: "X-My-Tier",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	h := r.Handler()

	get := func(tier, client string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/dist?u=3&v=17", nil)
		if tier != "" {
			req.Header.Set("X-My-Tier", tier)
		}
		if client != "" {
			req.Header.Set(admit.ClientHeader, client)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	rec := get("premium", "end-client")
	if rec.Code != http.StatusOK {
		t.Fatalf("premium query status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(admit.DefaultTierHeader); got != "premium" {
		t.Fatalf("router echoed tier %q, want premium", got)
	}
	owner := a
	if b.queries.Load() > 0 {
		owner = b
	}
	if got, _ := owner.lastTier.Load().(string); got != "premium" {
		t.Fatalf("shard saw tier %q on the canonical header, want premium", got)
	}
	if got, _ := owner.lastClient.Load().(string); got != "end-client" {
		t.Fatalf("shard saw client %q, want end-client", got)
	}

	// Shard-side quota verdict: both replicas reject, but the router must
	// settle on the FIRST answer rather than retrying — the verdict is
	// per-client-deterministic, not a replica fault.
	a.quotaReject.Store(true)
	b.quotaReject.Store(true)
	before := a.queries.Load() + b.queries.Load()
	rec = get("besteffort", "capped")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("quota-rejected query status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get(admit.RejectHeader); got != "quota" {
		t.Fatalf("forwarded reject marker %q, want quota", got)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("forwarded Retry-After %q, want 2", got)
	}
	if delta := a.queries.Load() + b.queries.Load() - before; delta != 1 {
		t.Fatalf("quota 429 hit %d shard attempts, want 1 (no second opinions)", delta)
	}

	checkRouterAdmitLedger(t, h)
}

// TestRouterEdgeQuota gives the router its own per-client token bucket:
// past the burst, requests are rejected at the edge without consuming any
// shard attempt, the 429 carries the quota marker and a Retry-After, and
// the rejections land in rejected_quota on the scraped ledger.
func TestRouterEdgeQuota(t *testing.T) {
	sh := newTierShard(t, "s0")
	r, err := New(Config{
		Shards:     []Shard{sh.shard()},
		QuotaRPS:   0.001,
		QuotaBurst: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	h := r.Handler()

	var quota int64
	for i := 0; i < 6; i++ {
		req := httptest.NewRequest(http.MethodGet, "/dist?u=1&v=2", nil)
		req.Header.Set(admit.ClientHeader, "greedy")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			if got := rec.Header().Get(admit.RejectHeader); got != "quota" {
				t.Fatalf("edge quota reject marker %q", got)
			}
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("edge quota 429 missing Retry-After")
			}
			quota++
		default:
			t.Fatalf("request %d status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if quota != 4 {
		t.Fatalf("burst 2 of 6 requests: %d quota rejections, want 4", quota)
	}
	if got := sh.queries.Load(); got != 2 {
		t.Fatalf("shard served %d queries, want 2 (rejected requests must not reach shards)", got)
	}
	checkRouterAdmitLedger(t, h)
}

// checkRouterAdmitLedger scrapes the router's /metrics and asserts the
// admission ledger identities per tier and in total.
func checkRouterAdmitLedger(t *testing.T, h http.Handler) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	var snap map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics decode: %v", err)
	}
	for _, p := range []string{"admit", "admit.besteffort", "admit.premium"} {
		req := snap[p+".requests"]
		adm := snap[p+".admitted"]
		rej := snap[p+".rejected_quota"] + snap[p+".rejected_inflight"] + snap[p+".rejected_draining"]
		if req != adm+rej {
			t.Fatalf("%s ledger: requests=%d != admitted=%d + rejected=%d", p, req, adm, rej)
		}
		if done := snap[p+".completed"] + snap[p+".deadline_expired"]; adm != done {
			t.Fatalf("%s ledger: admitted=%d != completed+expired=%d", p, adm, done)
		}
	}
	if snap["admit.requests"] != snap["admit.besteffort.requests"]+snap["admit.premium.requests"] {
		t.Fatalf("admit.requests total %d != tier sum", snap["admit.requests"])
	}
}
