// Package serve is the long-running distance-query layer over the paper's
// APSP machinery: the regime Schoeneman & Zola (arXiv:1902.04446) frame,
// where the graph is too large to precompute and hold all O(n^2) rows, so
// distances are computed on demand and reused.
//
// A Server owns a versioned graph store (internal/dyn), a row store
// (internal/store), and a landmark oracle (internal/oracle). The row store
// holds completed rows keyed by (source, graph version) in three
// byte-budgeted tiers: a hot LRU of uncompressed rows (T1), a warm tier
// of delta-compressed frames holding what T1 evicts (T2), and an optional
// cold tier spilling frames to a disk-backed arena (T3) — so the
// serveable working set scales far past the O(hot_rows*n) RAM wall. Rows
// resident in no tier are computed by the subset solver (core.SolveSubset)
// through the solve callback the server hands the store — batched per
// request, so the row-reuse dynamic programming that powers ParAPSP still
// fires between the sources of one batch — and the store deduplicates
// concurrent promotes and solves of the same source (single flight). In
// front of all three tiers sits the sketch answer path: a query with
// tolerance tol > 0 whose landmark bounds certify upper <= (1+tol)*lower
// is answered from the O(k*n) oracle alone, touching no row tier at all.
//
// The graph is dynamic: ApplyEdge (HTTP: POST /edge) inserts, deletes, or
// reweights an edge, publishing a new copy-on-write snapshot with a
// monotonically increasing version. Queries pin the current snapshot at
// admission and answer entirely against it — a mutation never blocks a
// reader, and an in-flight query keeps its pinned version even if ten
// mutations land while it runs. Before a new version becomes visible, the
// mutation reconciles every tier of the row store: rows the changed edge
// cannot affect are re-tagged to the new version for free, rows an
// improved edge can lower are repaired by a bounded SSSP seeded at the
// edge (dyn.RepairImprove), and rows invalidated by a delete/increase are
// simply not carried forward — the next query re-solves them. Every
// response carries the answering version in the X-Parapsp-Graph-Version
// header.
//
// Resource safety and admission live in one shared layer, internal/admit:
// every request passes the Admitter's gates — per-client token-bucket
// quotas, SLO-tiered inflight backpressure (excess requests fail fast
// with ErrBusy, which the HTTP layer maps to 429 + Retry-After), and the
// drain state — and runs under a context deadline. Requests carry an
// admit.Request (client identity + tier) in their context: premium
// requests are always answered exactly and may occupy the whole inflight
// budget, best-effort requests keep the sketch-first approximate path and
// only the best-effort slice of the budget, so a saturating best-effort
// client cannot move premium latency. Shutdown drains — it stops
// admitting work, waits for in-flight requests, and only then returns, so
// no accepted request is ever dropped.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"parapsp/internal/admit"
	"parapsp/internal/core"
	"parapsp/internal/dyn"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/obs"
	"parapsp/internal/oracle"
	"parapsp/internal/store"
)

// Errors surfaced by the query API — aliases of the shared admission
// vocabulary, kept under their historical names. The HTTP layer maps
// ErrBusy (and admit.ErrQuota) to 429, ErrClosed to 503, and context
// deadline errors to 504; edge-mutation conflicts (dyn.ErrNoEdge,
// dyn.ErrEdgeExists) map to 409. Rejections arrive as *admit.RejectError
// wrapping these sentinels, so errors.Is keeps working.
var (
	ErrBusy   = admit.ErrInflight
	ErrClosed = admit.ErrDraining
)

// Config tunes a Server. The zero value serves exact queries with one
// solver worker, a 256-row hot tier, 16 landmarks, and a 30-second
// request timeout.
type Config struct {
	// Workers is the worker count of each subset solve (and the oracle
	// build). Values below 1 mean 1.
	Workers int
	// CacheBytes budgets the hot tier (T1): uncompressed distance rows at
	// 4*n bytes each, byte-accounted LRU. <= 0 means 256 rows (256*4*n
	// bytes); at least one row is always retained.
	CacheBytes int64
	// WarmBytes budgets the warm tier (T2): delta-compressed frames of
	// evicted rows, decompressed back into T1 on demand. 0 defaults to
	// 4x the T1 budget (compressed rows are several times smaller, so the
	// warm tier holds a multiple of the hot row count in the same memory);
	// negative disables the tier.
	WarmBytes int64
	// SpillBytes budgets the cold tier (T3): compressed frames spilled to
	// a disk-backed arena by an async writeback goroutine. 0 disables
	// spilling; > 0 requires SpillDir.
	SpillBytes int64
	// SpillDir is the directory of the cold tier's arena file. Reopening
	// a directory written by a previous process for the same graph
	// warm-starts the cold tier from the recovered frames.
	SpillDir string
	// OraclePath, when set, persists the landmark oracle: New loads it if
	// the file matches the served graph's fingerprint, else builds and
	// saves it — turning the k-SSSP oracle build into a one-time cost.
	OraclePath string
	// Landmarks is the oracle's landmark count (default 16); negative
	// disables the oracle entirely, making every query exact. The oracle
	// only answers at the graph version it was built for: the first edge
	// mutation retires it, after which every query is exact.
	Landmarks int
	// MaxInflight bounds concurrently admitted queries (default 64).
	// Excess requests fail with ErrBusy instead of queueing without bound.
	MaxInflight int
	// BestEffortShare is the fraction of MaxInflight best-effort requests
	// may occupy (default 0.75, see admit.Config); the remainder is the
	// premium reserve.
	BestEffortShare float64
	// QuotaRPS is the per-client token-bucket refill rate in
	// requests/second; 0 disables quotas. QuotaBurst is the bucket depth
	// (default ceil(QuotaRPS)). Identity is the X-Parapsp-Client header,
	// else the remote IP.
	QuotaRPS   float64
	QuotaBurst int
	// TierHeader is the request header carrying the SLO tier label
	// (default X-Parapsp-Tier); responses always echo the admitted tier
	// in X-Parapsp-Tier regardless.
	TierHeader string
	// MaxBatch bounds the queries accepted in one /batch request
	// (default 256).
	MaxBatch int
	// RequestTimeout is the per-request context deadline applied when the
	// caller's context has none (default 30s).
	RequestTimeout time.Duration
	// Metrics is the registry the server publishes its counters into
	// (serve.*); nil creates a private registry.
	Metrics *obs.Metrics
	// ShardID is an optional identity label reported in /healthz. A
	// cluster router matches it against its membership table; standalone
	// daemons leave it empty.
	ShardID string
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Landmarks == 0 {
		c.Landmarks = 16
	}
	if c.MaxInflight < 1 {
		c.MaxInflight = 64
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.TierHeader == "" {
		c.TierHeader = admit.DefaultTierHeader
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	return c
}

// metrics holds the server's counter handles, looked up once so the hot
// path only does atomic adds. The row ledger (serve.cache.* and
// serve.store.*) belongs to the row store; the server adds only its
// sketch answers to it.
type metrics struct {
	solves, solvedRows           *obs.Counter
	batchSolves, scalarSolves    *obs.Counter
	timeouts, badRequests        *obs.Counter
	exact, approx                *obs.Counter
	mutations, mutationConflicts *obs.Counter
	storeLookups, storeSketch    *obs.Counter
}

func newServeMetrics(reg *obs.Metrics) *metrics {
	return &metrics{
		solves:     reg.Counter("serve.solve.batches"),
		solvedRows: reg.Counter("serve.solve.rows"),
		// serve.solve.batch/scalar split serve.solve.batches by the core
		// engine that ran the subset solve, so cache-cold batch wins are
		// visible in the serving metrics without a trace.
		batchSolves:  reg.Counter("serve.solve.batch"),
		scalarSolves: reg.Counter("serve.solve.scalar"),
		timeouts:     reg.Counter("serve.timeouts"),
		badRequests:  reg.Counter("serve.bad_requests"),
		exact:        reg.Counter("serve.answers.exact"),
		approx:       reg.Counter("serve.answers.approx"),
		// Committed mutations and edge conflicts; what each mutation did
		// to the rows is the row store's serve.store.dyn.* ledger.
		mutations:         reg.Counter("serve.dyn.mutations"),
		mutationConflicts: reg.Counter("serve.dyn.conflicts"),
		// A sketch answer is a row lookup no tier saw (the landmark bounds
		// certified the tolerance); see store's ledger for the rest.
		storeLookups: reg.Counter("serve.store.lookups"),
		storeSketch:  reg.Counter("serve.store.sketch_answered"),
	}
}

// Query is one distance question.
type Query struct {
	U int32 `json:"u"`
	V int32 `json:"v"`
}

// Answer is one resolved query. Dist is -1 when v is unreachable from u
// (and, for approximate answers, when no landmark connects the pair —
// inconclusive, see Exact). Lower/Upper carry the oracle bounds that
// backed an approximate answer; for exact answers they both equal Dist.
type Answer struct {
	U     int32 `json:"u"`
	V     int32 `json:"v"`
	Dist  int64 `json:"dist"`
	Exact bool  `json:"exact"`
	Lower int64 `json:"lower"`
	Upper int64 `json:"upper"`
}

// Server answers distance and path queries over a versioned graph.
type Server struct {
	store *dyn.Store
	n     int // vertex count; mutations never change it
	cfg   Config

	// rows holds every finished row, in all three tiers, and runs the
	// single flight of their promotes and solves.
	rows *store.Store
	m    *metrics
	// adm is the shared admission layer: quotas, tiered inflight
	// backpressure, drain state, and the admit.* ledger, publishing into
	// the same registry as the serve.* counters.
	adm *admit.Admitter

	httpSrv *httpServerRef
}

// New builds a server: it validates the config, constructs the landmark
// oracle (unless disabled; loaded from OraclePath when it matches the
// graph), opens the row store, and seeds the version store at version 1.
func New(g *graph.Graph, cfg Config) (*Server, error) {
	if g == nil || g.N() == 0 {
		return nil, fmt.Errorf("serve: nil or empty graph")
	}
	cfg = cfg.withDefaults()
	n := g.N()
	// Resolve the tier byte budgets. T1 defaults to 256 rows; T2 to 4x T1
	// (compressed rows are several times smaller than raw, so the same
	// memory holds a multiple of the row count); T3 is opt-in.
	t1Bytes := cfg.CacheBytes
	if t1Bytes <= 0 {
		t1Bytes = 256 * int64(n) * 4
	}
	warmBytes := cfg.WarmBytes
	if warmBytes == 0 {
		warmBytes = 4 * t1Bytes
	}
	if warmBytes < 0 {
		warmBytes = 0
	}
	if cfg.SpillBytes > 0 && cfg.SpillDir == "" {
		return nil, fmt.Errorf("serve: SpillBytes set without SpillDir")
	}
	s := &Server{
		n:   n,
		cfg: cfg,
		m:   newServeMetrics(cfg.Metrics),
		adm: admit.New(admit.Config{
			MaxInflight:     cfg.MaxInflight,
			BestEffortShare: cfg.BestEffortShare,
			QuotaRPS:        cfg.QuotaRPS,
			QuotaBurst:      cfg.QuotaBurst,
			RequestTimeout:  cfg.RequestTimeout,
			Metrics:         cfg.Metrics,
		}),
		httpSrv: &httpServerRef{},
	}
	// The graph fingerprint keys every on-disk artifact (oracle file,
	// spill arena) to this exact graph; computed once, only when needed.
	var fp uint64
	if cfg.OraclePath != "" || cfg.SpillBytes > 0 {
		fp = g.Fingerprint()
	}
	var orc *oracle.Oracle
	if cfg.Landmarks > 0 {
		if cfg.OraclePath != "" {
			if o, err := oracle.Load(cfg.OraclePath, g, fp); err == nil {
				orc = o
			}
		}
		if orc == nil {
			o, err := oracle.Build(g, oracle.Options{Landmarks: cfg.Landmarks, Workers: cfg.Workers})
			if err != nil {
				return nil, fmt.Errorf("serve: oracle build: %w", err)
			}
			orc = o
			if cfg.OraclePath != "" {
				if err := orc.Save(cfg.OraclePath, fp); err != nil {
					return nil, fmt.Errorf("serve: oracle save: %w", err)
				}
			}
		}
	}
	// The compression dictionary is the build-time landmark oracle, pinned
	// for the server's lifetime even after mutations retire the snapshot's
	// answering oracle (a dictionary need not be semantically current;
	// frame checksums pin every decode to the exact reference row it was
	// encoded against). Only the compressed tiers use it.
	var refs store.RefProvider
	if orc != nil && (warmBytes > 0 || cfg.SpillBytes > 0) {
		refs = newOracleRefs(orc, n)
	}
	spillPath := ""
	if cfg.SpillBytes > 0 {
		spillPath = filepath.Join(cfg.SpillDir, "parapsp-spill.arena")
	}
	rows, err := store.Open(store.Config{
		N:           n,
		HotBytes:    t1Bytes,
		WarmBytes:   warmBytes,
		SpillBytes:  cfg.SpillBytes,
		SpillPath:   spillPath,
		Fingerprint: fp,
		Refs:        refs,
		Metrics:     cfg.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: row store: %w", err)
	}
	s.rows = rows
	s.store = dyn.NewStore(g, orc)
	return s, nil
}

// oracleRefs adapts the pinned landmark oracle into the frame codec's
// compression dictionary: row src encodes against the row of the landmark
// nearest to src (refID = landmark index + 1; 0 keeps self-delta for
// vertices no landmark reaches). The nearest-landmark choice is computed
// once per vertex — it makes finite deltas triangle-bounded by d(src, L),
// the property that compresses hub-close rows to ~1 byte/entry.
type oracleRefs struct {
	o     *oracle.Oracle
	k     int
	refOf []uint32 // per-vertex refID (0 = self-delta)
}

func newOracleRefs(o *oracle.Oracle, n int) *oracleRefs {
	r := &oracleRefs{o: o, k: len(o.Landmarks()), refOf: make([]uint32, n)}
	for v := 0; v < n; v++ {
		if i, _ := o.NearestLandmark(int32(v)); i >= 0 {
			r.refOf[v] = uint32(i + 1)
		}
	}
	return r
}

func (r *oracleRefs) RefFor(src int32) (uint32, []matrix.Dist) {
	id := r.refOf[src]
	if id == 0 {
		return 0, nil
	}
	return id, r.o.FromRow(int(id - 1))
}

func (r *oracleRefs) RefRow(id uint32) []matrix.Dist {
	if id == 0 || int(id) > r.k {
		return nil
	}
	return r.o.FromRow(int(id - 1))
}

// Graph returns the currently served graph (the latest published
// version). Queries in flight may still be answering against an earlier
// pinned version.
func (s *Server) Graph() *graph.Graph { return s.store.Current().G }

// Oracle returns the landmark oracle of the current snapshot, or nil when
// disabled or retired by a mutation.
func (s *Server) Oracle() *oracle.Oracle { return s.store.Current().Oracle }

// Version returns the current graph version. It starts at 1 and increases
// by exactly one per committed mutation.
func (s *Server) Version() uint64 { return s.store.Version() }

// Metrics returns the registry the server publishes into.
func (s *Server) Metrics() *obs.Metrics { return s.cfg.Metrics }

// StoreStats returns the row store's residency snapshot, every tier and
// every version.
func (s *Server) StoreStats() store.Stats { return s.rows.Snapshot() }

// Inflight returns the number of currently admitted queries (both tiers).
func (s *Server) Inflight() int { return s.adm.Inflight() }

// InflightTier returns one tier's currently admitted query count.
func (s *Server) InflightTier(t admit.Tier) int { return s.adm.InflightTier(t) }

// QuotaClients returns the number of per-client quota buckets tracked.
func (s *Server) QuotaClients() int { return s.adm.Clients() }

// Draining reports whether Shutdown has begun: new work is being refused
// with ErrClosed. A cluster router's health prober consumes this through
// /healthz to take the shard out of the ring before its final 503.
func (s *Server) Draining() bool { return s.adm.Draining() }

// admitRequest routes one query through the shared admission layer: the
// admit.Request is taken from the context (attached by the HTTP layer;
// programmatic callers default to the "local" client at BestEffort), and
// the returned release must be called exactly once with the request's
// terminal error so the admission ledger books it as completed or
// deadline_expired. It is the server's only Admit call, so admit.* counts
// every query.
func (s *Server) admitRequest(ctx context.Context) (func(error), admit.Request, error) {
	req := admit.RequestFrom(ctx)
	if req.Client == "" {
		req.Client = "local"
	}
	release, err := s.adm.Admit(req)
	return release, req, err
}

func (s *Server) checkVertex(v int32) error {
	if v < 0 || int(v) >= s.n {
		return fmt.Errorf("serve: vertex %d out of range [0,%d)", v, s.n)
	}
	return nil
}

// Solver-kind values reported per request via the X-Parapsp-Solver header
// and the kind returned by BatchPinned and PathPinned: which machinery
// produced the answers — the multi-source batch engine, the scalar subset solver, or no
// solver at all (cache hits, oracle bounds, and trivial u==v queries).
// When a solve runs, the reported value is qualified with the SSSP kernel
// core's dispatch table picked for it, "<engine>/<kernel>": "batch/msbfs",
// "batch/sweep", "scalar/dijkstra", "scalar/deltastar". SolverCache stays
// unqualified — no kernel ran.
const (
	SolverBatch  = "batch"
	SolverScalar = "scalar"
	SolverCache  = "cache"
)

// solverKind renders the qualified kind of a completed subset solve.
func solverKind(sub *core.SubsetResult) string {
	if sub.Batched() {
		return SolverBatch + "/" + sub.Kernel
	}
	return SolverScalar + "/" + sub.Kernel
}

// BatchPinned answers a group of distance queries in one admission (a
// /dist query is a batch of one). The sources of all queries resident in
// no tier are handed to the subset solver together, so rows computed for
// one query fold into the searches of the others exactly as in ParAPSP.
//
// With tol > 0, a best-effort query may be answered approximately from
// the oracle bounds before any tier is consulted: if they satisfy
// upper-lower <= tol*lower the upper bound is returned (so Dist <=
// (1+tol) * true distance). tol must be finite and >= 0; premium requests
// are always exact.
//
// It returns the answers, the solver kind of the request (a
// kernel-qualified "batch/..." or "scalar/..." value when a subset solve
// ran, SolverCache when none did), and the graph version the request
// pinned: the whole batch — row lookups, oracle bounds, and subset solves
// alike — is answered against exactly that snapshot, regardless of
// concurrent mutations.
func (s *Server) BatchPinned(ctx context.Context, qs []Query, tol float64) (_ []Answer, _ string, _ uint64, err error) {
	if len(qs) == 0 {
		return nil, "", 0, fmt.Errorf("serve: empty batch")
	}
	if len(qs) > s.cfg.MaxBatch {
		return nil, "", 0, fmt.Errorf("serve: batch of %d exceeds limit %d", len(qs), s.cfg.MaxBatch)
	}
	if math.IsNaN(tol) || math.IsInf(tol, 0) || tol < 0 {
		return nil, "", 0, fmt.Errorf("serve: invalid tolerance %g", tol)
	}
	for _, q := range qs {
		if err := s.checkVertex(q.U); err != nil {
			return nil, "", 0, err
		}
		if err := s.checkVertex(q.V); err != nil {
			return nil, "", 0, err
		}
	}
	release, req, err := s.admitRequest(ctx)
	if err != nil {
		return nil, "", 0, err
	}
	defer func() { release(err) }()
	// Premium means always-exact: the tier contract overrides the caller's
	// tolerance, so a premium answer is bit-identical to the FW truth even
	// when the client (or a proxy default) passed tol > 0.
	if req.Tier == admit.Premium {
		tol = 0
	}
	ctx, cancel := s.adm.WithDeadline(ctx)
	defer cancel()
	pin := s.store.Current()

	out := make([]Answer, len(qs))
	var srcs []int32
	var pending []int // indices of out waiting on srcs' rows
	for i, q := range qs {
		if q.U == q.V {
			out[i] = exactAnswer(q, 0)
			s.m.exact.Add(1)
			continue
		}
		// Sketch tier: a tolerant query whose landmark bounds certify
		// upper <= (1+tol)*lower is answered from the O(k*n) oracle alone
		// — in front of all three row tiers, touching none of them. This
		// is what keeps the tolerant working set off the memory budget
		// entirely.
		if tol > 0 && pin.Oracle != nil {
			if lo, up, ok := pin.Oracle.BoundsWithin(q.U, q.V, tol); ok {
				out[i] = approxAnswer(q, lo, up)
				s.m.approx.Add(1)
				s.m.storeLookups.Add(1)
				s.m.storeSketch.Add(1)
				continue
			}
		}
		srcs = append(srcs, q.U)
		pending = append(pending, i)
	}
	kind := SolverCache
	if len(srcs) > 0 {
		var rows [][]matrix.Dist
		rows, kind, err = s.load(ctx, pin, srcs, req.Tier)
		if err != nil {
			return nil, "", 0, err
		}
		for j, i := range pending {
			out[i] = exactAnswer(qs[i], rows[j][qs[i].V])
			s.m.exact.Add(1)
		}
	}
	return out, kind, pin.Version, nil
}

func exactAnswer(q Query, d matrix.Dist) Answer {
	jd := distToJSON(d)
	return Answer{U: q.U, V: q.V, Dist: jd, Exact: true, Lower: jd, Upper: jd}
}

func approxAnswer(q Query, lo, up matrix.Dist) Answer {
	return Answer{U: q.U, V: q.V, Dist: distToJSON(up), Exact: false,
		Lower: distToJSON(lo), Upper: distToJSON(up)}
}

func distToJSON(d matrix.Dist) int64 {
	if d == matrix.Inf {
		return -1
	}
	return int64(d)
}

// load resolves the rows of srcs at the pinned snapshot through the row
// store, in order, with the request's SLO tier as the single-flight class.
// Rows resident in no tier are solved in one subset batch against pin.G.
// The returned rows are immutable shared snapshots. The kind reports which
// solver ran: a kernel-qualified "batch/..." or "scalar/..." value when
// this call solved, SolverCache otherwise.
func (s *Server) load(ctx context.Context, pin *dyn.Snapshot, srcs []int32, tier admit.Tier) ([][]matrix.Dist, string, error) {
	kind := SolverCache
	rows, err := s.rows.Load(ctx, pin.Version, uint8(tier), srcs, func(cold []int32) ([][]matrix.Dist, error) {
		sub, err := core.SolveSubset(pin.G, cold, core.Options{Workers: s.cfg.Workers})
		if err != nil {
			return nil, err
		}
		s.m.solves.Add(1)
		s.m.solvedRows.Add(int64(len(cold)))
		kind = solverKind(sub)
		if sub.Batched() {
			s.m.batchSolves.Add(1)
		} else {
			s.m.scalarSolves.Add(1)
		}
		// Copy out of the SubsetResult so the store keeps only the rows,
		// not the whole k*n block.
		out := make([][]matrix.Dist, len(cold))
		for i, src := range cold {
			out[i] = append([]matrix.Dist(nil), sub.Row(src)...)
		}
		return out, nil
	})
	if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		s.m.timeouts.Add(1)
	}
	return rows, kind, err
}

// PathPinned answers an exact shortest-path query: the vertices from u to
// v inclusive, or nil when v is unreachable, with the distance answer,
// the solver kind that resolved u's row, and the pinned graph version.
// The path is core.Path over u's distance row and the reverse adjacency
// of the same snapshot, the walk the library uses too, so it needs no
// O(n^2) next-hop matrix and matches a library solve of that version
// vertex for vertex.
func (s *Server) PathPinned(ctx context.Context, u, v int32) (_ []int32, _ Answer, _ string, _ uint64, err error) {
	if err := s.checkVertex(u); err != nil {
		return nil, Answer{}, "", 0, err
	}
	if err := s.checkVertex(v); err != nil {
		return nil, Answer{}, "", 0, err
	}
	release, req, err := s.admitRequest(ctx)
	if err != nil {
		return nil, Answer{}, "", 0, err
	}
	defer func() { release(err) }()
	ctx, cancel := s.adm.WithDeadline(ctx)
	defer cancel()
	pin := s.store.Current()
	rows, kind, err := s.load(ctx, pin, []int32{u}, req.Tier)
	if err != nil {
		return nil, Answer{}, "", 0, err
	}
	row := rows[0]
	ans := exactAnswer(Query{U: u, V: v}, row[v])
	s.m.exact.Add(1)
	path := core.Path(pin.TR, row, u, v)
	return path, ans, kind, pin.Version, nil
}

// ApplyResult reports what one committed edge mutation did: the published
// version and the fate of every row of the previous version, in every
// tier of the row store.
type ApplyResult struct {
	// Version is the graph version the mutation published.
	Version uint64 `json:"version"`
	// Kind is the monotone effect class: "improve", "worsen", or "none".
	Kind string `json:"kind"`
	// OldW is the edge weight before the op (0 for an insert).
	OldW int64 `json:"old_w"`
	// Scanned counts the previous version's rows the mutation examined,
	// hot rows and compressed frames alike; Scanned == Retagged +
	// Repaired + Invalidated always.
	Scanned int `json:"scanned"`
	// Retagged rows were provably unaffected and carried forward for
	// free (a hot row's slice is shared, a frame is rebound in place).
	Retagged int `json:"retagged"`
	// Repaired rows were affected by an improving edge and fixed by the
	// bounded repair SSSP (a hot row as a copy, a frame in place);
	// RepairedLabels sums the distance labels the repairs lowered.
	Repaired       int `json:"repaired"`
	RepairedLabels int `json:"repaired_labels"`
	// Invalidated rows were hit by a worsening edge through a tight arc
	// (or failed to decode) and dropped; the next query for them
	// re-solves from scratch.
	Invalidated int `json:"invalidated"`
}

// ApplyEdge applies one edge mutation and publishes the next graph
// version. Readers are never blocked: in-flight queries keep answering
// against their pinned snapshots, and the row store is reconciled —
// unaffected rows re-tagged, improvable rows repaired, stale rows dropped
// — before the new version becomes visible, so the first query at the new
// version already finds warm, exact rows. Mutations are serialized by
// dyn.Store.Mutate, whose lock spans the reconcile and the publish.
// Conflicts (inserting an existing edge, deleting or reweighting a missing
// one) fail with dyn.ErrEdgeExists / dyn.ErrNoEdge.
func (s *Server) ApplyEdge(op dyn.EdgeOp) (ApplyResult, error) {
	// Mutations are auxiliary work: they respect the drain state (so
	// Shutdown can wait for them) but are not queries — they take no
	// inflight slot, burn no quota, and stay off the admission ledger.
	done, err := s.adm.Track()
	if err != nil {
		return ApplyResult{}, err
	}
	defer done()

	var st store.RecStats
	next, ch, err := s.store.Mutate(op, func(old, next *dyn.Snapshot, ch dyn.Change) {
		undirected := next.G.Undirected()
		arcs := ch.Arcs(undirected)
		st = s.rows.Reconcile(old.Version, next.Version,
			func(row []matrix.Dist) store.Verdict {
				switch dyn.Classify(row, ch, undirected) {
				case dyn.RowUnaffected:
					return store.Keep
				case dyn.RowRepairable:
					return store.Repair
				default:
					return store.Drop
				}
			},
			func(row []matrix.Dist) int {
				return dyn.RepairImprove(next.G, row, arcs...)
			})
	})
	if err != nil {
		if errors.Is(err, dyn.ErrNoEdge) || errors.Is(err, dyn.ErrEdgeExists) {
			s.m.mutationConflicts.Add(1)
		}
		return ApplyResult{}, err
	}
	s.m.mutations.Add(1)
	return ApplyResult{
		Version:        next.Version,
		Kind:           ch.Kind.String(),
		OldW:           int64(ch.OldW),
		Scanned:        st.Scanned,
		Retagged:       st.Retagged,
		Repaired:       st.Repaired,
		RepairedLabels: st.RepairedLabels,
		Invalidated:    st.Dropped,
	}, nil
}

// Shutdown drains the server: new work is refused with ErrClosed, the
// embedded HTTP server (if Serve was called) stops accepting and waits for
// active connections, in-flight queries and mutations are awaited, and
// the row store is closed. It returns nil when everything drained before
// ctx expired. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.adm.Drain()
	err := s.httpSrv.shutdown(ctx)
	if qerr := s.adm.Quiesce(ctx); qerr != nil && err == nil {
		err = qerr
	}
	// With queries drained no demotion or promotion can race the close;
	// the store drains its spill queue and stops the writeback goroutine.
	s.rows.Close()
	return err
}
