package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"parapsp/internal/admit"
	"parapsp/internal/obs"
)

// errUnavailable is the terminal routing failure: every owner in the
// hedge/retry chain was tried (or the ring is empty) and none answered.
// The HTTP layer maps it to 503 + Retry-After — the only path to a 503.
var errUnavailable = errors.New("cluster: no owning shard reachable")

// maxFwdBody bounds one shard response the router will buffer; a /batch
// of 256 answers is a few tens of KB, so 8 MiB flags a broken upstream
// rather than truncating a real one.
const maxFwdBody = 8 << 20

// Fixed timing of the escalation mechanisms: hedgeMin and hedgeMax clamp
// the adaptive hedge delay, and retryBackoff is the delay before
// re-routing a failed subrequest to the next surviving owner, doubling per
// retry.
const (
	hedgeMin     = 2 * time.Millisecond
	hedgeMax     = 250 * time.Millisecond
	retryBackoff = 5 * time.Millisecond
)

// Config tunes a Router. The zero value (plus a shard list) probes every
// 250ms, hedges adaptively at the owner's p90 latency, allows 3 attempts
// per subrequest, and times requests out after 30s.
type Config struct {
	// Shards is the cluster membership. IDs must be unique; consistent
	// hashing keys on them, so a replica keeps its ring segment across
	// address changes iff its ID is stable.
	Shards []Shard
	// HedgeAfter, when positive, is a fixed delay before a second request
	// is hedged to the next owner. Zero selects the adaptive policy: the
	// primary owner's p90 latency over its last 64 successes, clamped to
	// [2ms, 250ms] (25ms before any sample exists).
	HedgeAfter time.Duration
	// MaxAttempts bounds the shards tried per subrequest — the first
	// attempt plus hedges plus retries, each to a distinct owner (default
	// 3, never more than the healthy shard count).
	MaxAttempts int
	// RequestTimeout is the per-request deadline applied when the client
	// sends none (default 30s). Requests never hang past it: expiry
	// cancels every in-flight subrequest and answers 504.
	RequestTimeout time.Duration
	// ProbeInterval is the health-probe period (default 250ms);
	// ProbeTimeout bounds one probe round-trip (default 2s).
	ProbeInterval, ProbeTimeout time.Duration
	// MaxBatch bounds the queries accepted in one /batch (default 256).
	MaxBatch int
	// MaxInflight bounds concurrently admitted requests at the router edge
	// (default 256 — a router fans out, so it runs wider than one shard).
	// Excess requests answer 429 + Retry-After instead of queueing.
	MaxInflight int
	// BestEffortShare is the fraction of MaxInflight best-effort requests
	// may occupy (default 0.75, see admit.Config); the rest is the premium
	// reserve.
	BestEffortShare float64
	// QuotaRPS is the per-client token-bucket refill rate at the router
	// edge; 0 disables router-side quotas (shard-side quotas still apply
	// and are passed through faithfully). QuotaBurst is the bucket depth
	// (default ceil(QuotaRPS)).
	QuotaRPS   float64
	QuotaBurst int
	// TierHeader is the request header carrying the SLO tier label
	// (default X-Parapsp-Tier). Whatever header name is accepted here, the
	// router always forwards the canonical X-Parapsp-Tier to shards and
	// echoes it on responses.
	TierHeader string
	// Metrics receives the cluster.* counters; nil creates a private
	// registry.
	Metrics *obs.Metrics
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 3
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 256
	}
	if c.MaxInflight < 1 {
		c.MaxInflight = 256
	}
	if c.TierHeader == "" {
		c.TierHeader = admit.DefaultTierHeader
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	return c
}

// routerMetrics holds the cluster.* counter handles. The reconciliation
// invariant the chaos test pins: every subrequest attempt lands in exactly
// one terminal bucket, so routed == merged + hedge_cancelled + failed.
type routerMetrics struct {
	requests, badRequests, unavailable, deadlines *obs.Counter
	badUpstream                                   *obs.Counter
	routed, merged, hedgeCancelled, failed        *obs.Counter
	hedges, retries                               *obs.Counter
	probes, probeFailures, probeMismatch          *obs.Counter
	shardUp, shardDown, shardsHealthy             *obs.Counter
	versionSkew                                   *obs.Counter
}

func newRouterMetrics(reg *obs.Metrics) *routerMetrics {
	return &routerMetrics{
		requests:    reg.Counter("cluster.requests"),
		badRequests: reg.Counter("cluster.bad_requests"),
		unavailable: reg.Counter("cluster.unavailable"),
		deadlines:   reg.Counter("cluster.deadlines"),
		badUpstream: reg.Counter("cluster.bad_upstream"),
		// The attempt ledger: routed counts every subrequest sent to a
		// shard; merged the one whose response was used, hedge_cancelled
		// the race losers, failed the genuine errors. Always balances.
		routed:         reg.Counter("cluster.routed"),
		merged:         reg.Counter("cluster.merged"),
		hedgeCancelled: reg.Counter("cluster.hedge_cancelled"),
		failed:         reg.Counter("cluster.failed"),
		hedges:         reg.Counter("cluster.hedges"),
		retries:        reg.Counter("cluster.retries"),
		probes:         reg.Counter("cluster.probes"),
		probeFailures:  reg.Counter("cluster.probe_failures"),
		probeMismatch:  reg.Counter("cluster.probe_mismatch"),
		shardUp:        reg.Counter("cluster.shard_up"),
		shardDown:      reg.Counter("cluster.shard_down"),
		shardsHealthy:  reg.Counter("cluster.shards_healthy"),
		// version_skew counts /batch merges refused (409) because the
		// contributing shards answered at different graph versions.
		versionSkew: reg.Counter("cluster.version_skew"),
	}
}

// Router is the stateless cluster front end. It owns membership and the
// consistent-hash ring, nothing else: no rows, no cache, no graph. Any
// instance can be restarted or replicated freely.
type Router struct {
	cfg    Config
	mem    *membership
	m      *routerMetrics
	lat    map[string]*latencyWindow
	client *http.Client
	// adm is the shared admission layer at the router edge: the same
	// quotas/tiers/ledger machinery the shards run, so a request rejected
	// here never costs a shard round trip. See internal/admit.
	adm *admit.Admitter
	// n is the graph order adopted from the first successful probe
	// (0 = unknown); shards reporting a different order are refused as
	// misconfigured. Used to 400 out-of-range queries at the edge.
	n atomic.Int64
	// vers tracks each shard's last-probed graph version (0 = unknown),
	// keyed by shard ID. Purely observational — /healthz exposes it and
	// operators watch it converge after mutations; the authoritative skew
	// gate reads the versions off the actual merged responses instead,
	// because a probe is always a little stale. Fixed key set after New,
	// so reads need no lock.
	vers map[string]*atomic.Uint64

	stopProbe            chan struct{}
	probeWG              sync.WaitGroup
	startOnce, closeOnce sync.Once
}

// New validates the membership table and builds a router with every shard
// initially in the ring. Call Start to begin health probing; without it
// membership only changes on observed transport failures.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("%w: empty shard list", ErrConfig)
	}
	ids := make(map[string]bool, len(cfg.Shards))
	addrs := make(map[string]bool, len(cfg.Shards))
	for _, sh := range cfg.Shards {
		if err := checkID(sh.ID); err != nil {
			return nil, err
		}
		if err := checkAddr(sh.Addr); err != nil {
			return nil, err
		}
		if ids[sh.ID] {
			return nil, fmt.Errorf("%w: duplicate shard id %q", ErrConfig, sh.ID)
		}
		if addrs[sh.Addr] {
			return nil, fmt.Errorf("%w: duplicate shard address %q", ErrConfig, sh.Addr)
		}
		ids[sh.ID], addrs[sh.Addr] = true, true
	}
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:    cfg,
		mem:    newMembership(cfg.Shards),
		m:      newRouterMetrics(cfg.Metrics),
		lat:    make(map[string]*latencyWindow, len(cfg.Shards)),
		vers:   make(map[string]*atomic.Uint64, len(cfg.Shards)),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}},
		adm: admit.New(admit.Config{
			MaxInflight:     cfg.MaxInflight,
			BestEffortShare: cfg.BestEffortShare,
			QuotaRPS:        cfg.QuotaRPS,
			QuotaBurst:      cfg.QuotaBurst,
			RequestTimeout:  cfg.RequestTimeout,
			Metrics:         cfg.Metrics,
		}),
		stopProbe: make(chan struct{}),
	}
	for _, sh := range cfg.Shards {
		r.lat[sh.ID] = newLatencyWindow(cfg.Metrics.Timing("cluster.shard." + sh.ID + ".latency"))
		r.vers[sh.ID] = new(atomic.Uint64)
	}
	r.m.shardsHealthy.Set(int64(r.mem.healthyCount()))
	return r, nil
}

// Metrics returns the registry the router publishes into.
func (r *Router) Metrics() *obs.Metrics { return r.cfg.Metrics }

// Healthy returns the number of shards currently in the ring.
func (r *Router) Healthy() int { return r.mem.healthyCount() }

// setShardHealth applies one health observation, counting the transition
// and refreshing the healthy gauge iff the state flipped.
func (r *Router) setShardHealth(id string, ok bool) {
	if !r.mem.setHealthy(id, ok) {
		return
	}
	if ok {
		r.m.shardUp.Add(1)
	} else {
		r.m.shardDown.Add(1)
	}
	r.m.shardsHealthy.Set(int64(r.mem.healthyCount()))
}

// order returns the graph order for edge validation, or MaxInt32 before
// any probe has reported one (the shards then do the range checking).
func (r *Router) order() int {
	if n := r.n.Load(); n > 0 {
		return int(n)
	}
	return math.MaxInt32
}

// withDeadline applies the configured request timeout when the caller's
// context has no deadline of its own — delegated to the shared admission
// layer so routers and shards propagate deadlines identically.
func (r *Router) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	return r.adm.WithDeadline(ctx)
}

// fwdResult is one completed subrequest attempt.
type fwdResult struct {
	shard  Shard
	status int
	header http.Header
	body   []byte
	err    error
}

// usable reports whether an attempt's response settles the subrequest:
// a success, or a client error to pass through verbatim. Backpressure
// 429s and every 5xx are retryable — another replica can do better — but
// a quota 429 (X-Parapsp-Reject: quota) passes through: it is the shard
// enforcing the client's own rate limit, deterministic for that client,
// and retrying it elsewhere would just burn another replica's tokens for
// the same verdict.
func usable(res *fwdResult) bool {
	if res.err != nil {
		return false
	}
	if res.status == http.StatusTooManyRequests {
		return res.header.Get(admit.RejectHeader) == "quota"
	}
	return res.status == http.StatusOK ||
		(res.status >= 400 && res.status < 500)
}

// attempt performs one HTTP round trip to one shard, forwarding the
// admitted identity (canonical client and tier headers) so shard-side
// quotas and SLO policy apply to the end client, not to the router. A
// transport failure outside the caller's own cancellation evicts the
// shard from the ring immediately (the prober readmits it when /healthz
// answers again), so the very next request already routes around a
// SIGKILLed replica.
func (r *Router) attempt(ctx context.Context, sh Shard, method, uri string, body []byte, areq admit.Request) *fwdResult {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, sh.URL()+uri, rd)
	if err != nil {
		return &fwdResult{shard: sh, err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if areq.Client != "" {
		req.Header.Set(admit.ClientHeader, areq.Client)
	}
	req.Header.Set(admit.DefaultTierHeader, areq.Tier.String())
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			r.setShardHealth(sh.ID, false)
		}
		return &fwdResult{shard: sh, err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxFwdBody+1))
	if err != nil || len(data) > maxFwdBody {
		if err == nil {
			err = fmt.Errorf("cluster: shard %s response exceeds %d bytes", sh.ID, maxFwdBody)
		}
		return &fwdResult{shard: sh, err: err}
	}
	if resp.StatusCode == http.StatusOK {
		r.lat[sh.ID].observe(time.Since(start))
	}
	return &fwdResult{shard: sh, status: resp.StatusCode, header: resp.Header, body: data}
}

// hedgeDelay returns how long to wait on the primary before hedging.
func (r *Router) hedgeDelay(primary Shard) time.Duration {
	if r.cfg.HedgeAfter > 0 {
		return r.cfg.HedgeAfter
	}
	d, ok := r.lat[primary.ID].p90()
	if !ok {
		d = 25 * time.Millisecond
	}
	if d < hedgeMin {
		d = hedgeMin
	}
	if d > hedgeMax {
		d = hedgeMax
	}
	return d
}

// forward resolves one subrequest against an owner chain: attempt the
// primary, hedge to the next owner once the hedge delay expires, retry
// with doubling backoff on failures, first usable response wins. Every
// attempt is accounted terminally — the winner as merged, race losers as
// hedge_cancelled, everything else as failed — so the attempt ledger
// balances by construction. Returns errUnavailable when the chain is
// exhausted and ctx.Err() when the deadline expires first.
func (r *Router) forward(ctx context.Context, method, uri string, body []byte, owners []Shard, areq admit.Request) (*fwdResult, error) {
	if len(owners) == 0 {
		return nil, errUnavailable
	}
	maxAtt := r.cfg.MaxAttempts
	if maxAtt > len(owners) {
		maxAtt = len(owners)
	}
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	results := make(chan *fwdResult, maxAtt)
	var wg sync.WaitGroup
	launched, consumed := 0, 0
	launch := func() {
		sh := owners[launched]
		launched++
		r.m.routed.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- r.attempt(ctx, sh, method, uri, body, areq)
		}()
	}
	launch()

	// settle cancels stragglers, joins every attempt goroutine, and
	// drains their results into the given terminal bucket. No goroutine
	// outlives the request — the leak test holds the router to that.
	settle := func(bucket *obs.Counter) {
		cancelAll()
		wg.Wait()
		for ; consumed < launched; consumed++ {
			<-results
			bucket.Add(1)
		}
	}

	var hedgeC <-chan time.Time
	if maxAtt > 1 {
		t := time.NewTimer(r.hedgeDelay(owners[0]))
		defer t.Stop()
		hedgeC = t.C
	}
	var retryC <-chan time.Time
	var retryTimer *time.Timer
	defer func() {
		if retryTimer != nil {
			retryTimer.Stop()
		}
	}()
	backoff := retryBackoff
	inflight := 1
	for inflight > 0 || retryC != nil {
		select {
		case res := <-results:
			inflight--
			consumed++
			if usable(res) {
				r.m.merged.Add(1)
				settle(r.m.hedgeCancelled)
				return res, nil
			}
			r.m.failed.Add(1)
			if launched < maxAtt && retryC == nil {
				retryTimer = time.NewTimer(backoff)
				retryC = retryTimer.C
				backoff *= 2
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < maxAtt {
				r.m.hedges.Add(1)
				launch()
				inflight++
			}
		case <-retryC:
			retryC = nil
			if launched < maxAtt {
				r.m.retries.Add(1)
				launch()
				inflight++
			}
		case <-ctx.Done():
			// Deadline or client walked away: there is no winner, so every
			// abandoned attempt is a failure, not a cancelled hedge.
			settle(r.m.failed)
			return nil, ctx.Err()
		}
	}
	return nil, errUnavailable
}
