package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// probeHealth is the slice of the shard /healthz payload the prober
// consumes: the draining flag takes a shard out of the ring *before* its
// listener closes (so the router never has to eat the drain 503s), and
// the graph order is adopted for edge validation and cross-checked so a
// misconfigured replica serving a different graph can never contribute
// wrong rows.
type probeHealth struct {
	Draining bool  `json:"draining"`
	Vertices int64 `json:"vertices"`
	// GraphVersion is recorded per shard for /healthz observability.
	// Unlike Vertices it is NOT a health criterion: replicas legitimately
	// diverge for the propagation window of a mutation, and evicting the
	// laggards would turn every update into a partial outage. The /batch
	// merge gate handles skew at answer time instead.
	GraphVersion uint64 `json:"graph_version"`
}

// Start launches the background health prober: every ProbeInterval, all
// shards are probed in parallel, and the ring is rebuilt on any health
// transition. Start is idempotent; call Close to stop the prober and
// release the router's transport.
func (r *Router) Start() {
	r.startOnce.Do(func() {
		r.probeWG.Add(1)
		go func() {
			defer r.probeWG.Done()
			ticker := time.NewTicker(r.cfg.ProbeInterval)
			defer ticker.Stop()
			r.probeOnce()
			for {
				select {
				case <-r.stopProbe:
					return
				case <-ticker.C:
					r.probeOnce()
				}
			}
		}()
	})
}

// Close stops the prober, waits for it to exit, and closes idle
// forwarding connections. The router keeps serving (membership just
// freezes), so Close is safe to call before the HTTP server drains.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.stopProbe) })
	r.probeWG.Wait()
	r.client.CloseIdleConnections()
}

// probeOnce probes every shard in parallel and applies the verdicts. The
// round joins before returning, so probe goroutines never accumulate.
func (r *Router) probeOnce() {
	var wg sync.WaitGroup
	for _, sh := range r.cfg.Shards {
		wg.Add(1)
		go func(sh Shard) {
			defer wg.Done()
			r.setShardHealth(sh.ID, r.probeShard(sh))
		}(sh)
	}
	wg.Wait()
}

// probeShard performs one health check. Healthy means: /healthz answers
// 200 with a decodable body, is not draining, and reports the same graph
// order as the rest of the cluster.
func (r *Router) probeShard(sh Shard) bool {
	r.m.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.URL()+"/healthz", nil)
	if err != nil {
		r.m.probeFailures.Add(1)
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.m.probeFailures.Add(1)
		return false
	}
	defer resp.Body.Close()
	var hb probeHealth
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&hb) != nil {
		r.m.probeFailures.Add(1)
		return false
	}
	if hb.Draining {
		r.m.probeFailures.Add(1)
		return false
	}
	if hb.GraphVersion > 0 {
		r.vers[sh.ID].Store(hb.GraphVersion)
	}
	if hb.Vertices > 0 {
		if !r.n.CompareAndSwap(0, hb.Vertices) && r.n.Load() != hb.Vertices {
			// The shard serves a different graph than the one the cluster
			// adopted: answers would be silently wrong, so refuse it.
			r.m.probeMismatch.Add(1)
			return false
		}
	}
	return true
}
