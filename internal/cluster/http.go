package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"parapsp/internal/admit"
	"parapsp/internal/obs"
	"parapsp/internal/serve"
)

// shardHeader reports which shard(s) answered a routed request; for a
// merged /batch it is the comma-joined sorted set of contributing shards.
const shardHeader = "X-Parapsp-Shard"

// Handler returns the router's HTTP API — the same query surface as one
// parapspd, plus cluster introspection:
//
//	GET  /dist?u=..&v=..[&tol=..]  routed to u's owning shard
//	GET  /path?u=..&v=..           routed to u's owning shard
//	POST /batch                    split by owner, fanned out, merged
//	GET  /healthz                  membership table + ring state
//	GET  /metrics                  the cluster.* registry as flat JSON
//
// Clients cannot tell a router from a shard on the query endpoints;
// errors map identically (400 parse, 503 + Retry-After when no owner is
// reachable, 504 deadline), with shard 4xx/answers passed through.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/dist", func(w http.ResponseWriter, req *http.Request) {
		labeled("dist", func() { r.handleQuery("/dist", w, req) })
	})
	mux.HandleFunc("/path", func(w http.ResponseWriter, req *http.Request) {
		labeled("path", func() { r.handleQuery("/path", w, req) })
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, req *http.Request) {
		labeled("batch", func() { r.handleBatch(w, req) })
	})
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/metrics", r.handleMetrics)
	return mux
}

// labeled runs fn under pprof labels so router CPU profiles split by
// endpoint, the same convention as the shard's parapspd-endpoint labels.
func labeled(endpoint string, fn func()) {
	obs.Do(fn, "parapsprouter-endpoint", endpoint)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// writeRouteError maps a routing or admission failure to its HTTP status
// through the shared admit vocabulary: the router's own quota/inflight
// rejections answer 429 + Retry-After exactly as a shard's would, 503 +
// Retry-After when no owner is reachable (the promise the chaos test
// holds us to — that is the *only* unavailability 503), 504 on deadline,
// 400 otherwise. All terminal statuses are written by admit.WriteDecision
// so routers and shards cannot drift apart.
func (r *Router) writeRouteError(w http.ResponseWriter, err error) {
	if d, ok := admit.Classify(err); ok {
		// The router's own quota and inflight rejections are counted by
		// its admitter (admit.rejected_quota, admit.rejected_inflight).
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			r.m.deadlines.Add(1)
		}
		admit.WriteDecision(w, d)
		return
	}
	switch {
	case errors.Is(err, errUnavailable):
		r.m.unavailable.Add(1)
		admit.WriteDecision(w, admit.Decision{
			Status: http.StatusServiceUnavailable, RetryAfter: 1, Msg: err.Error(),
		})
	case errors.Is(err, admit.ErrTier):
		r.m.badRequests.Add(1)
		admit.WriteDecision(w, admit.Decision{Status: http.StatusBadRequest, Msg: err.Error()})
	default:
		r.m.badRequests.Add(1)
		admit.WriteDecision(w, admit.Decision{Status: http.StatusBadRequest, Msg: err.Error()})
	}
}

// writeForwarded relays one shard response verbatim, stamping the shard.
// Beyond the solver/version observability headers it preserves the
// admission headers of a shard-side rejection — Retry-After, the reject
// reason, and the tier echo — so a client behind the router sees exactly
// what it would see talking to the shard.
func writeForwarded(w http.ResponseWriter, res *fwdResult) {
	for _, h := range []string{
		serve.SolverHeader, serve.VersionHeader, "Content-Type",
		"Retry-After", admit.RejectHeader, admit.DefaultTierHeader,
	} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(shardHeader, res.shard.ID)
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// admitEdge resolves the request's admission identity and admits it at
// the router edge: tier parse errors answer 400, quota/inflight/draining
// rejections answer through the shared decision table — all before any
// shard round trip. The admitted tier is echoed immediately so every
// response (including rejections) carries it. Callers must invoke the
// returned release exactly once with the request's terminal error.
func (r *Router) admitEdge(w http.ResponseWriter, req *http.Request) (admit.Request, func(error), bool) {
	areq, err := admit.ParseRequest(req, r.cfg.TierHeader)
	if err != nil {
		r.writeRouteError(w, err)
		return admit.Request{}, nil, false
	}
	w.Header().Set(admit.DefaultTierHeader, areq.Tier.String())
	release, err := r.adm.Admit(areq)
	if err != nil {
		r.writeRouteError(w, err)
		return admit.Request{}, nil, false
	}
	return areq, release, true
}

// handleQuery routes /dist and /path: both are keyed by the source u, so
// ownership is the ring walk from hash(u).
func (r *Router) handleQuery(endpoint string, w http.ResponseWriter, req *http.Request) {
	r.m.requests.Add(1)
	areq, release, ok := r.admitEdge(w, req)
	if !ok {
		return
	}
	var ferr error
	defer func() { release(ferr) }()
	u, _, _, err := serve.ParseDistQuery(req.URL.Query(), r.order())
	if err != nil {
		r.m.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	ctx, cancel := r.withDeadline(req.Context())
	defer cancel()
	owners := r.mem.current().owners(u)
	res, err := r.forward(ctx, http.MethodGet, endpoint+"?"+req.URL.RawQuery, nil, owners, areq)
	if err != nil {
		ferr = err
		r.writeRouteError(w, err)
		return
	}
	writeForwarded(w, res)
}

// shardGroup is the slice of one /batch destined for a single owner.
type shardGroup struct {
	owners  []Shard // hedge/retry chain of the group's sources
	indices []int   // positions in the original query list
	queries []serve.Query
}

type batchWire struct {
	Queries []serve.Query `json:"queries"`
	Tol     float64       `json:"tol,omitempty"`
}

type batchAnswers struct {
	Answers []serve.Answer `json:"answers"`
}

func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	r.m.requests.Add(1)
	if req.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	areq, release, ok := r.admitEdge(w, req)
	if !ok {
		return
	}
	var ferr error
	defer func() { release(ferr) }()
	data, err := io.ReadAll(http.MaxBytesReader(w, req.Body, serve.MaxBodyBytes))
	if err != nil {
		r.m.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "body: " + err.Error()})
		return
	}
	qs, tol, err := serve.ParseBatch(data, r.order(), r.cfg.MaxBatch)
	if err != nil {
		r.m.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	ctx, cancel := r.withDeadline(req.Context())
	defer cancel()

	// Split by owning shard against one ring snapshot, so a concurrent
	// membership change cannot split one request across two world views.
	rg := r.mem.current()
	groups := make(map[string]*shardGroup)
	var order []string // deterministic fan-out order
	for i, q := range qs {
		owners := rg.owners(q.U)
		if len(owners) == 0 {
			ferr = errUnavailable
			r.writeRouteError(w, errUnavailable)
			return
		}
		key := owners[0].ID
		grp := groups[key]
		if grp == nil {
			grp = &shardGroup{owners: owners}
			groups[key] = grp
			order = append(order, key)
		}
		grp.indices = append(grp.indices, i)
		grp.queries = append(grp.queries, q)
	}

	// Fan out the groups concurrently; each group runs the full
	// hedge/retry chain independently.
	type groupResult struct {
		grp *shardGroup
		res *fwdResult
		err error
	}
	results := make([]groupResult, len(order))
	var wg sync.WaitGroup
	for gi, key := range order {
		grp := groups[key]
		wg.Add(1)
		go func(gi int, grp *shardGroup) {
			defer wg.Done()
			body, err := json.Marshal(batchWire{Queries: grp.queries, Tol: tol})
			if err != nil {
				results[gi] = groupResult{grp: grp, err: err}
				return
			}
			res, err := r.forward(ctx, http.MethodPost, "/batch", body, grp.owners, areq)
			results[gi] = groupResult{grp: grp, res: res, err: err}
		}(gi, grp)
	}
	wg.Wait()

	// Merge: routing failures dominate (the whole batch fails honestly),
	// then shard-reported client errors pass through, then answers are
	// scattered back into request order.
	for _, gr := range results {
		if gr.err != nil {
			ferr = gr.err
			r.writeRouteError(w, gr.err)
			return
		}
	}
	for _, gr := range results {
		if gr.res.status != http.StatusOK {
			writeForwarded(w, gr.res)
			return
		}
	}
	// Version-skew gate: all contributing shards must have answered at the
	// same graph version, or the merge would mix two different graphs.
	mergedVer := ""
	for _, gr := range results {
		ver := gr.res.header.Get(serve.VersionHeader)
		if ver == "" {
			continue
		}
		if mergedVer == "" {
			mergedVer = ver
			continue
		}
		if ver != mergedVer {
			r.m.versionSkew.Add(1)
			admit.WriteDecision(w, admit.Decision{
				Status:     http.StatusConflict,
				RetryAfter: 1,
				Msg:        fmt.Sprintf("cluster: graph version skew across shards (%s vs %s); retry after replicas converge", mergedVer, ver),
			})
			return
		}
	}
	answers := make([]serve.Answer, len(qs))
	shardIDs := make([]string, 0, len(results))
	kinds := make([]string, 0, len(results))
	for _, gr := range results {
		var body batchAnswers
		if err := json.Unmarshal(gr.res.body, &body); err != nil || len(body.Answers) != len(gr.grp.indices) {
			r.m.badUpstream.Add(1)
			writeJSON(w, http.StatusBadGateway, errorBody{
				Error: fmt.Sprintf("cluster: shard %s returned a malformed batch response", gr.res.shard.ID),
			})
			return
		}
		for j, idx := range gr.grp.indices {
			answers[idx] = body.Answers[j]
		}
		shardIDs = appendUnique(shardIDs, gr.res.shard.ID)
		if kind := gr.res.header.Get(serve.SolverHeader); kind != "" {
			kinds = appendUnique(kinds, kind)
		}
	}
	sort.Strings(shardIDs)
	sort.Strings(kinds)
	w.Header().Set(shardHeader, strings.Join(shardIDs, ","))
	if len(kinds) > 0 {
		w.Header().Set(serve.SolverHeader, strings.Join(kinds, ","))
	}
	if mergedVer != "" {
		w.Header().Set(serve.VersionHeader, mergedVer)
	}
	writeJSON(w, http.StatusOK, batchAnswers{Answers: answers})
}

func appendUnique(s []string, v string) []string {
	for _, have := range s {
		if have == v {
			return s
		}
	}
	return append(s, v)
}

type shardHealth struct {
	ID      string `json:"id"`
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	// GraphVersion is the shard's graph version from its last successful
	// probe (0 before any). Divergent values are expected transiently
	// while a mutation propagates; the /batch merge gate turns them into
	// 409s instead of mixed answers.
	GraphVersion uint64 `json:"graph_version,omitempty"`
}

type clusterHealth struct {
	Status   string        `json:"status"` // ok | degraded | unavailable
	Shards   []shardHealth `json:"shards"`
	Healthy  int           `json:"healthy"`
	Vertices int64         `json:"vertices"` // 0 until a probe reports it
	// Router-edge admission load, split by SLO tier.
	Inflight           int `json:"inflight"`
	PremiumInflight    int `json:"premium_inflight"`
	BestEffortInflight int `json:"besteffort_inflight"`
	QuotaClients       int `json:"quota_clients"`
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	shards, healthy := r.mem.snapshot()
	body := clusterHealth{
		Vertices:           r.n.Load(),
		Inflight:           r.adm.Inflight(),
		PremiumInflight:    r.adm.InflightTier(admit.Premium),
		BestEffortInflight: r.adm.InflightTier(admit.BestEffort),
		QuotaClients:       r.adm.Clients(),
	}
	for i, sh := range shards {
		body.Shards = append(body.Shards, shardHealth{
			ID: sh.ID, Addr: sh.Addr, Healthy: healthy[i],
			GraphVersion: r.vers[sh.ID].Load(),
		})
		if healthy[i] {
			body.Healthy++
		}
	}
	switch {
	case body.Healthy == len(shards):
		body.Status = "ok"
	case body.Healthy > 0:
		body.Status = "degraded"
	default:
		body.Status = "unavailable"
	}
	writeJSON(w, http.StatusOK, body)
}

func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = r.cfg.Metrics.WriteJSON(w)
}
