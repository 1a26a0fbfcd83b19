package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

	"parapsp/internal/admit"
	"parapsp/internal/dyn"
	"parapsp/internal/obs"
)

// The wire names below are shared with the cluster router, which speaks
// the same API in front of the shards.

// MaxBodyBytes bounds a /batch request body; MaxBytesReader turns larger
// bodies into a read error, which parses as a 400.
const MaxBodyBytes = 1 << 20

// SolverHeader reports which machinery answered a query request:
// "batch" (multi-source batch engine), "scalar" (per-source subset
// solver), or "cache" (no solve ran). See the Solver* constants.
const SolverHeader = "X-Parapsp-Solver"

// VersionHeader carries the graph version a response was computed at: the
// pinned snapshot version for queries, the newly published version for
// mutations, and the current version for /healthz and /metrics. Monotonic
// per shard; a cluster router uses it to refuse merging answers computed
// at different versions.
const VersionHeader = "X-Parapsp-Graph-Version"

func setVersion(w http.ResponseWriter, ver uint64) {
	w.Header().Set(VersionHeader, strconv.FormatUint(ver, 10))
}

// httpServerRef holds the http.Server behind a Serve call so Shutdown can
// reach it from another goroutine.
type httpServerRef struct {
	mu  sync.Mutex
	srv *http.Server
}

func (r *httpServerRef) set(s *http.Server) {
	r.mu.Lock()
	r.srv = s
	r.mu.Unlock()
}

func (r *httpServerRef) shutdown(ctx context.Context) error {
	r.mu.Lock()
	s := r.srv
	r.mu.Unlock()
	if s == nil {
		return nil
	}
	return s.Shutdown(ctx)
}

// Handler returns the server's HTTP API:
//
//	GET  /dist?u=3&v=17[&tol=0.2]   one distance query
//	GET  /path?u=3&v=17             shortest path (always exact)
//	POST /batch                     {"queries":[{"u":..,"v":..},...],"tol":0.0}
//	POST /edge                      {"op":"insert"|"delete"|"reweight","u":..,"v":..[,"w":..]}
//	GET  /healthz                   liveness + graph shape + version
//	GET  /metrics                   the obs metrics registry as flat JSON
//	GET  /debug/pprof/...           the standard Go profiling endpoints
//
// Every query handler runs under the drain group and the request-timeout
// deadline; errors map to 400 (parse), 409 (edge-mutation conflict),
// 429 + Retry-After (backpressure), 503 (draining), and 504 (deadline).
// Every response carries the X-Parapsp-Graph-Version header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/dist", s.handleDist)
	mux.HandleFunc("/path", s.handlePath)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/edge", s.handleEdge)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve runs the HTTP API on l until Shutdown. It returns nil after a
// clean Shutdown.
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	s.httpSrv.set(hs)
	if err := hs.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// writeJSON writes v with the given status; encoding errors at this point
// can only be transport failures, which the client observes directly.
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

// writeError maps a query-layer error to its HTTP status. Error responses
// carry the current graph version (no pinned snapshot exists for them).
// The shared admission vocabulary (quota/inflight 429s, draining 503,
// deadline 504, each with its Retry-After and reject-reason header) is
// classified and written by internal/admit — one table for every daemon;
// only serve-specific errors (parse, mutation conflicts, validation) are
// mapped here.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	if w.Header().Get(VersionHeader) == "" {
		setVersion(w, s.Version())
	}
	if d, ok := admit.Classify(err); ok {
		admit.WriteDecision(w, d)
		return
	}
	switch {
	case errors.Is(err, ErrParse), errors.Is(err, dyn.ErrOp), errors.Is(err, admit.ErrTier):
		s.m.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	case errors.Is(err, dyn.ErrNoEdge), errors.Is(err, dyn.ErrEdgeExists):
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
	default:
		// Validation errors raised by the query API itself (range checks,
		// batch limits) are client mistakes, not server faults.
		s.m.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	}
}

// admitContext resolves the request's admission identity (client header or
// remote address, tier header) and attaches it to the context for
// admitRequest to consume. A malformed tier value is a 400 — written here —
// and the returned ok is false.
func (s *Server) admitContext(w http.ResponseWriter, r *http.Request) (*http.Request, bool) {
	req, err := admit.ParseRequest(r, s.cfg.TierHeader)
	if err != nil {
		s.writeError(w, err)
		return r, false
	}
	// Echo the admitted tier on every response — success or rejection — so
	// clients and the router can observe which SLO actually applied.
	w.Header().Set(admit.DefaultTierHeader, req.Tier.String())
	return r.WithContext(admit.WithRequest(r.Context(), req)), true
}

// labeled runs fn under pprof labels so CPU profiles split by endpoint,
// matching the parapsp-alg/parapsp-phase labels of the solver layer.
func labeled(endpoint string, fn func()) {
	obs.Do(fn, "parapspd-endpoint", endpoint)
}

func (s *Server) handleDist(w http.ResponseWriter, r *http.Request) {
	labeled("dist", func() {
		r, ok := s.admitContext(w, r)
		if !ok {
			return
		}
		u, v, tol, err := ParseDistQuery(r.URL.Query(), s.n)
		if err != nil {
			s.writeError(w, err)
			return
		}
		as, kind, ver, err := s.BatchPinned(r.Context(), []Query{{U: u, V: v}}, tol)
		if err != nil {
			s.writeError(w, err)
			return
		}
		w.Header().Set(SolverHeader, kind)
		setVersion(w, ver)
		writeJSON(w, http.StatusOK, as[0])
	})
}

type pathBody struct {
	Answer
	Path []int32 `json:"path"`
	Hops int     `json:"hops"`
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	labeled("path", func() {
		r, ok := s.admitContext(w, r)
		if !ok {
			return
		}
		u, v, _, err := ParseDistQuery(r.URL.Query(), s.n)
		if err != nil {
			s.writeError(w, err)
			return
		}
		path, ans, kind, ver, err := s.PathPinned(r.Context(), u, v)
		if err != nil {
			s.writeError(w, err)
			return
		}
		w.Header().Set(SolverHeader, kind)
		setVersion(w, ver)
		body := pathBody{Answer: ans, Path: path, Hops: len(path) - 1}
		if path == nil {
			body.Path = []int32{}
			body.Hops = -1
		}
		writeJSON(w, http.StatusOK, body)
	})
}

type batchBody struct {
	Answers []Answer `json:"answers"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	labeled("batch", func() {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
			return
		}
		r, ok := s.admitContext(w, r)
		if !ok {
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		if err != nil {
			s.m.badRequests.Add(1)
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "body: " + err.Error()})
			return
		}
		qs, tol, err := ParseBatch(data, s.n, s.cfg.MaxBatch)
		if err != nil {
			s.writeError(w, err)
			return
		}
		as, kind, ver, err := s.BatchPinned(r.Context(), qs, tol)
		if err != nil {
			s.writeError(w, err)
			return
		}
		w.Header().Set(SolverHeader, kind)
		setVersion(w, ver)
		writeJSON(w, http.StatusOK, batchBody{Answers: as})
	})
}

func (s *Server) handleEdge(w http.ResponseWriter, r *http.Request) {
	labeled("edge", func() {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		if err != nil {
			s.m.badRequests.Add(1)
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "body: " + err.Error()})
			return
		}
		op, err := ParseEdgeOp(data, s.n)
		if err != nil {
			s.writeError(w, err)
			return
		}
		res, err := s.ApplyEdge(op)
		if err != nil {
			s.writeError(w, err)
			return
		}
		setVersion(w, res.Version)
		writeJSON(w, http.StatusOK, res)
	})
}

// healthBody is the /healthz payload. Beyond liveness and graph shape it
// carries what a cluster router's health prober needs to manage the ring:
// the draining flag (set the moment Shutdown begins, before the final
// 503s), the admission load, and the T1 hit rate, plus the shard's
// configured identity.
type healthBody struct {
	Status       string  `json:"status"` // "ok" | "draining"
	ShardID      string  `json:"shard_id,omitempty"`
	Vertices     int     `json:"vertices"`
	Arcs         int64   `json:"arcs"`
	GraphVersion uint64  `json:"graph_version"`
	CachedRows   int     `json:"cached_rows"`
	Landmarks    int     `json:"landmarks"`
	Inflight     int     `json:"inflight"`
	Draining     bool    `json:"draining"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Admission-layer load split by SLO tier, plus the number of
	// per-client quota buckets currently tracked.
	PremiumInflight    int `json:"premium_inflight"`
	BestEffortInflight int `json:"besteffort_inflight"`
	QuotaClients       int `json:"quota_clients"`
	// Row-store residency; cached_rows and cached_bytes are T1's.
	CachedBytes int64 `json:"cached_bytes"`
	WarmRows    int   `json:"warm_rows"`
	WarmBytes   int64 `json:"warm_bytes"`
	ColdRows    int   `json:"cold_rows"`
	ColdBytes   int64 `json:"cold_bytes"`
	SpillFile   int64 `json:"spill_file_bytes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Current()
	landmarks := 0
	if snap.Oracle != nil {
		landmarks = len(snap.Oracle.Landmarks())
	}
	status := "ok"
	draining := s.Draining()
	if draining {
		status = "draining"
	}
	// The row store's ledger: the share of row lookups T1 answered.
	hitRate := 0.0
	if lookups := s.cfg.Metrics.Counter("serve.cache.lookups").Load(); lookups > 0 {
		hitRate = float64(s.cfg.Metrics.Counter("serve.store.t1_hits").Load()) / float64(lookups)
	}
	st := s.StoreStats()
	setVersion(w, snap.Version)
	writeJSON(w, http.StatusOK, healthBody{
		Status:             status,
		ShardID:            s.cfg.ShardID,
		Vertices:           s.n,
		Arcs:               snap.G.NumArcs(),
		GraphVersion:       snap.Version,
		CachedRows:         st.HotRows,
		Landmarks:          landmarks,
		Inflight:           s.Inflight(),
		Draining:           draining,
		CacheHitRate:       hitRate,
		PremiumInflight:    s.InflightTier(admit.Premium),
		BestEffortInflight: s.InflightTier(admit.BestEffort),
		QuotaClients:       s.QuotaClients(),
		CachedBytes:        st.HotBytes,
		WarmRows:           st.WarmRows,
		WarmBytes:          st.WarmBytes,
		ColdRows:           st.ColdRows,
		ColdBytes:          st.ColdBytes,
		SpillFile:          st.ArenaFile,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	setVersion(w, s.Version())
	_ = s.cfg.Metrics.WriteJSON(w)
}
