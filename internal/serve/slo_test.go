package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"parapsp/internal/admit"
	"parapsp/internal/baseline"
	"parapsp/internal/matrix"
)

// TestTierDifferentialUnderLoad is the SLO-tier differential check: while
// a pool of best-effort clients saturates its inflight slice (tol=0.5
// queries, more concurrency than the best-effort cap), a premium client
// runs the same endpoint and every premium answer must be bit-identical
// to the Floyd-Warshall truth — even though the premium requests ask for
// tol=0.9, which the premium SLO must override to exact. Best-effort
// answers are checked against the (1+tol) contract, best-effort must see
// at least one 429 (it is saturating a 3-slot slice with 8 clients), and
// premium must see none (the reserve slot is its by-construction
// guarantee). Afterwards the admission ledger is scraped from /metrics
// and reconciled per tier and in total. Run under -race by check.sh.
func TestTierDifferentialUnderLoad(t *testing.T) {
	const (
		beGoroutines = 8
		premiumOps   = 150
		beTol        = 0.5
	)
	g := testGraph(t, 200, 29)
	truth := baseline.FloydWarshall(g)
	s := newTestServer(t, g, Config{
		Workers:     2,
		CacheBytes:  rowsBudget(g, 16), // << 200 sources: best-effort work really solves
		Landmarks:   8,
		MaxInflight: 4, // best-effort cap 3, premium reserve 1
	})
	h := s.Handler()
	n := int32(g.N())

	var beRejected, beAnswered atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < beGoroutines; c++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(4200 + id))
			for op := 0; ; op++ {
				select {
				case <-stop:
					return
				default:
				}
				u, v := int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))
				ans, code, hdr := tierDist(h, admit.BestEffort, "be-client", u, v, beTol)
				if code == http.StatusTooManyRequests {
					if got := hdr.Get(admit.RejectHeader); got != "inflight" {
						t.Errorf("best-effort 429 reject header = %q, want inflight", got)
						return
					}
					beRejected.Add(1)
					continue
				}
				if code != http.StatusOK {
					t.Errorf("best-effort dist(%d,%d) status %d", u, v, code)
					return
				}
				if got := hdr.Get(admit.DefaultTierHeader); got != "besteffort" {
					t.Errorf("best-effort response echoed tier %q", got)
					return
				}
				if err := checkApproxContract(ans, truth, u, v, beTol); err != nil {
					t.Error(err)
					return
				}
				beAnswered.Add(1)
			}
		}(int64(c))
	}

	// The premium client runs while best-effort is saturating. It asks for
	// tol=0.9 on purpose: the tier, not the query parameter, must decide
	// exactness.
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < premiumOps; op++ {
		u, v := int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))
		ans, code, hdr := tierDist(h, admit.Premium, "prem-client", u, v, 0.9)
		if code != http.StatusOK {
			t.Fatalf("premium dist(%d,%d) op %d: status %d (premium must never be rejected here)", u, v, op, code)
		}
		if got := hdr.Get(admit.DefaultTierHeader); got != "premium" {
			t.Fatalf("premium response echoed tier %q", got)
		}
		want := distToJSON(truth.At(int(u), int(v)))
		if !ans.Exact || ans.Dist != want {
			t.Fatalf("premium dist(%d,%d) = %+v, want exact %d", u, v, ans, want)
		}
	}
	close(stop)
	wg.Wait()

	if beAnswered.Load() == 0 {
		t.Fatal("no best-effort queries answered")
	}
	if beRejected.Load() == 0 {
		t.Fatal("8 best-effort clients against a 3-slot slice never saw a 429")
	}
	t.Logf("besteffort answered=%d rejected=%d", beAnswered.Load(), beRejected.Load())

	snap := scrapeMetrics(t, h)
	if snap["admit.premium.rejected_inflight"] != 0 || snap["admit.premium.rejected_quota"] != 0 {
		t.Fatalf("premium was rejected: %+v", snap)
	}
	if snap["admit.besteffort.rejected_inflight"] == 0 {
		t.Fatal("best-effort inflight rejections not visible in /metrics")
	}
	checkAdmitLedger(t, snap)
}

// TestQuotaLedgerOverHTTP exhausts one client's token bucket over the
// wire, checks the quota 429 carries Retry-After and the quota reject
// marker, and reconciles the scraped ledger including rejected_quota.
func TestQuotaLedgerOverHTTP(t *testing.T) {
	g := testGraph(t, 80, 5)
	s := newTestServer(t, g, Config{
		Workers:    1,
		CacheBytes: rowsBudget(g, 8),
		QuotaRPS:   0.001, // refills are irrelevant within the test
		QuotaBurst: 3,
	})
	h := s.Handler()

	var quota int
	for i := 0; i < 10; i++ {
		_, code, hdr := tierDist(h, admit.BestEffort, "capped", 1, 2, 0)
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			if got := hdr.Get(admit.RejectHeader); got != "quota" {
				t.Fatalf("quota 429 reject header = %q", got)
			}
			if hdr.Get("Retry-After") == "" {
				t.Fatal("quota 429 missing Retry-After")
			}
			quota++
		default:
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if quota != 7 {
		t.Fatalf("burst 3 of 10 requests: %d quota rejections, want 7", quota)
	}
	snap := scrapeMetrics(t, h)
	if snap["admit.besteffort.rejected_quota"] != 7 {
		t.Fatalf("ledger rejected_quota = %d, want 7", snap["admit.besteffort.rejected_quota"])
	}
	checkAdmitLedger(t, snap)
}

// tierDist issues one /dist query through the handler with the given SLO
// tier and client identity, returning the decoded answer (on 200), the
// status code, and the response headers.
func tierDist(h http.Handler, tier admit.Tier, client string, u, v int32, tol float64) (Answer, int, http.Header) {
	target := fmt.Sprintf("/dist?u=%d&v=%d", u, v)
	if tol > 0 {
		target = fmt.Sprintf("%s&tol=%g", target, tol)
	}
	req := httptest.NewRequest(http.MethodGet, target, nil)
	req.Header.Set(admit.DefaultTierHeader, tier.String())
	req.Header.Set(admit.ClientHeader, client)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var ans Answer
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
			return ans, -1, rec.Header()
		}
	}
	return ans, rec.Code, rec.Header()
}

// checkApproxContract asserts the best-effort answer brackets the truth:
// exact answers match it, approximate ones stay within (1+tol).
func checkApproxContract(ans Answer, truth *matrix.Matrix, u, v int32, tol float64) error {
	want := distToJSON(truth.At(int(u), int(v)))
	if ans.Exact {
		if ans.Dist != want {
			return fmt.Errorf("exact dist(%d,%d) = %d, want %d", u, v, ans.Dist, want)
		}
		return nil
	}
	if want == -1 {
		if ans.Dist != -1 {
			return fmt.Errorf("approx dist(%d,%d) = %d for unreachable pair", u, v, ans.Dist)
		}
		return nil
	}
	upper := int64(math.Ceil(float64(want) * (1 + tol)))
	if ans.Dist < want || ans.Dist > upper {
		return fmt.Errorf("approx dist(%d,%d) = %d outside [%d, %d]", u, v, ans.Dist, want, upper)
	}
	return nil
}

// scrapeMetrics GETs /metrics through the handler and decodes the flat
// counter JSON — the same surface an operator's scraper sees.
func scrapeMetrics(t *testing.T, h http.Handler) map[string]int64 {
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
	return snap
}

// checkAdmitLedger asserts the admission ledger identities on a scraped
// counter snapshot, for the totals and for each tier column:
//
//	requests == admitted + rejected_quota + rejected_inflight + rejected_draining
//	admitted == completed + deadline_expired
//
// and that the tier columns sum to the totals.
func checkAdmitLedger(t *testing.T, snap map[string]int64) {
	t.Helper()
	rows := []string{"admit", "admit." + admit.BestEffort.String(), "admit." + admit.Premium.String()}
	for _, p := range rows {
		req := snap[p+".requests"]
		adm := snap[p+".admitted"]
		rej := snap[p+".rejected_quota"] + snap[p+".rejected_inflight"] + snap[p+".rejected_draining"]
		if req != adm+rej {
			t.Fatalf("%s ledger: requests=%d != admitted=%d + rejected=%d", p, req, adm, rej)
		}
		done := snap[p+".completed"] + snap[p+".deadline_expired"]
		if adm != done {
			t.Fatalf("%s ledger: admitted=%d != completed+expired=%d", p, adm, done)
		}
	}
	for _, f := range []string{"requests", "admitted", "completed"} {
		tot := snap["admit."+f]
		sum := snap["admit.besteffort."+f] + snap["admit.premium."+f]
		if tot != sum {
			t.Fatalf("admit.%s total %d != tier sum %d", f, tot, sum)
		}
	}
}
