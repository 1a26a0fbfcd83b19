package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"time"

	"parapsp/internal/admit"
	"parapsp/internal/core"
	"parapsp/internal/graph"
	"parapsp/internal/kernel"
	"parapsp/internal/matrix"
	"parapsp/internal/oracle"
	"parapsp/internal/serve"
	"parapsp/internal/store"
)

// trafficMetrics are the per-layer metrics taken from a serving workload's
// own traffic: its counters, responses and spans. The apsp workloads send
// no traffic, so they read 0 there.
var trafficMetrics = []string{
	"store.t1_hit_ratio", "store.t2_hit_ratio", "store.t3_hit_ratio", "store.miss_ratio",
	"store.reconcile_frames_per_write", "oracle.sketch_ratio", "admit.rejected_ratio",
	"serve.solves_per_kreq", "serve.coalesced_ratio", "serve.stall_ratio",
	"dyn.write_busy_ratio", "dyn.retag_ratio", "dyn.repair_ratio", "dyn.invalidate_ratio",
	"cluster.hop_share", "cluster.hedge_ratio", "cluster.hedge_waste_ratio", "cluster.retry_ratio",
}

// Sizes of the layer probes.
const (
	probeLoads   = 15   // edge-list loads
	probeSources = 64   // SolveSubset rows
	foldPairs    = 256  // FoldRow calls
	decodeRows   = 128  // frames decoded
	boundsCalls  = 4096 // BoundsWithin calls, timed 64 at a time
	admitCalls   = 8192 // Admit + release, timed 256 at a time
	replayReads  = 1000 // replayed reads
)

// probeSink keeps probed results alive so the compiler cannot drop calls.
var probeSink matrix.Dist

// probeSolve times one full ParAPSP solve outside the workload's traffic,
// for the serving workloads' order and core metrics.
func probeSolve(e *env, g *graph.Graph, truth *matrix.Matrix, log *solveLog, oc *outcome) error {
	runtime.GC()
	res, err := core.Solve(g, core.ParAPSP, core.Options{Workers: e.procs})
	if err != nil {
		return err
	}
	if res.D.Checksum() != truth.Checksum() {
		oc.fail(e.out, "probe solve checksum differs from the reference")
	}
	log.add(res)
	return nil
}

// probeLayers times each layer's public call on the workload's own
// inputs: the edge list, the solved rows, and the serving read mix over
// the workload's graph. sources are the rows the workload's traffic had to
// solve; when it solved none, a seeded sample stands in.
func probeLayers(e *env, in *input, truth *matrix.Matrix, sources []int32, oc *outcome) error {
	m := oc.metrics
	g, n := in.g, in.g.N()
	rng := rand.New(rand.NewSource(e.seed + 100))

	var loads []float64
	for i := 0; i < probeLoads; i++ {
		_, d, err := in.load()
		if err != nil {
			return err
		}
		loads = append(loads, ms(d))
	}
	m["gio.load_ms"] = median(loads)

	// core: SolveSubset one source at a time with serve's default options.
	if len(sources) == 0 {
		for i := 0; i < probeSources; i++ {
			sources = append(sources, int32(rng.Intn(n)))
		}
	}
	if len(sources) > probeSources {
		sources = sources[:probeSources]
	}
	var subset []float64
	for _, s := range sources {
		start := time.Now()
		sub, err := core.SolveSubset(g, []int32{s}, core.Options{Workers: 1})
		d := time.Since(start)
		if err != nil {
			return err
		}
		if !slices.Equal(sub.Row(s), truth.Row(int(s))) {
			oc.fail(e.out, "SolveSubset row %d differs from the reference", s)
		}
		subset = append(subset, ms(d))
	}
	m["core.subset_ms_per_row"] = median(subset)

	// kernel: FoldRow on pairs of solved rows joined by a finite distance.
	dst := make([]matrix.Dist, n)
	var fold []float64
	for tries := 0; len(fold) < foldPairs && tries < 16*foldPairs; tries++ {
		a, b := rng.Intn(n), rng.Intn(n)
		base := truth.At(a, b)
		if base == matrix.Inf {
			continue
		}
		copy(dst, truth.Row(a))
		start := time.Now()
		kernel.FoldRow(dst, truth.Row(b), base)
		fold = append(fold, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	m["kernel.fold_ns_per_entry"] = median(fold)

	// oracle: the serving default build (16 landmarks, one worker), then
	// certificate checks at the best-effort tolerance.
	var builds []float64
	var orc *oracle.Oracle
	for i := 0; i < 3; i++ {
		start := time.Now()
		o, err := oracle.Build(g, oracle.Options{Workers: 1})
		if err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(start)))
		orc = o
	}
	m["oracle.build_ms"] = median(builds)
	var bounds []float64
	for i := 0; i < boundsCalls; i += 64 {
		us := make([]int32, 64)
		vs := make([]int32, 64)
		for j := range us {
			us[j], vs[j] = int32(rng.Intn(n)), int32(rng.Intn(n))
		}
		start := time.Now()
		for j := range us {
			_, up, _ := orc.BoundsWithin(us[j], vs[j], tolerance)
			probeSink += up
		}
		bounds = append(bounds, float64(time.Since(start).Nanoseconds())/64/1e3)
	}
	m["oracle.bounds_us"] = median(bounds)

	// store: frames of solved rows against their nearest landmark's row,
	// the dictionary the serving tiers use.
	refs := landmarkRefs{orc, len(orc.Landmarks())}
	var decode []float64
	var frameBytes int
	var row []matrix.Dist
	for i := 0; i < decodeRows; i++ {
		s := int32(rng.Intn(n))
		id, ref := refs.RefFor(s)
		frame := store.AppendFrame(nil, truth.Row(int(s)), id, ref)
		start := time.Now()
		got, err := store.DecodeFrame(frame, n, row, refs)
		d := time.Since(start)
		if err != nil || !slices.Equal(got, truth.Row(int(s))) {
			oc.fail(e.out, "frame of row %d does not decode to the row: %v", s, err)
			continue
		}
		row = got
		frameBytes += len(frame)
		decode = append(decode, float64(d.Nanoseconds())/1e3)
	}
	m["store.decode_us_per_row"] = median(decode)
	m["store.frame_bytes_per_row"] = float64(frameBytes) / decodeRows

	// admit: Admit and release with a shard's admission config.
	adm := admit.New(admit.Config{})
	var admits []float64
	for i := 0; i < admitCalls; i += 256 {
		start := time.Now()
		for j := 0; j < 256; j++ {
			release, err := adm.Admit(admit.Request{Client: "bench", Tier: admit.Premium})
			if err != nil {
				return err
			}
			release(nil)
		}
		admits = append(admits, float64(time.Since(start).Nanoseconds())/256/1e3)
	}
	m["admit.admit_us"] = median(admits)

	return probeServe(e, g, truth, oc)
}

// landmarkRefs is the serving tiers' compression dictionary: a row is
// encoded against the row of the landmark nearest its source.
type landmarkRefs struct {
	o *oracle.Oracle
	k int // landmark count
}

func (r landmarkRefs) RefFor(src int32) (uint32, []matrix.Dist) {
	i, _ := r.o.NearestLandmark(src)
	if i < 0 {
		return 0, nil
	}
	return uint32(i + 1), r.o.FromRow(i)
}

func (r landmarkRefs) RefRow(id uint32) []matrix.Dist {
	if id == 0 || int(id) > r.k {
		return nil
	}
	return r.o.FromRow(int(id - 1))
}

// probeServe replays the read mix over the workload's graph twice, each
// time on a fresh server with the shard config, warmed as the serving
// workloads warm theirs: once through BatchPinned/PathPinned, once through
// the HTTP handler with no network. Both replays see the same cache
// states, so a request's handler time minus its direct time is what HTTP
// decoding and encoding cost it.
func probeServe(e *env, g *graph.Graph, truth *matrix.Matrix, oc *outcome) error {
	popularity := rand.New(rand.NewSource(e.seed + 200)).Perm(g.N())
	reqs := newMix(popularity, e.seed+201).reads(replayReads)

	direct := make([]time.Duration, len(reqs))
	err := withWarmShard(e, g, popularity, func(srv *serve.Server) {
		for i, r := range reqs {
			start := time.Now()
			err := queryDirect(srv, r)
			direct[i] = time.Since(start)
			if err != nil {
				oc.fail(e.out, "direct %s (%d,%d): %v", kindNames[r.kind], r.u, r.v, err)
			}
		}
	})
	if err != nil {
		return err
	}

	vt := &versionTruth{base: truth, graphs: map[uint64]*graph.Graph{1: g}}
	var overhead []float64
	perKind := map[kind][]float64{}
	err = withWarmShard(e, g, popularity, func(srv *serve.Server) {
		h := srv.Handler()
		for i, r := range reqs {
			hr, err := r.httpRequest("http://shard")
			if err != nil {
				oc.fail(e.out, "replayed %s: %v", kindNames[r.kind], err)
				continue
			}
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, hr)
			d := time.Since(start)
			r.record(rec.Code, rec.Header(), rec.Body.Bytes())
			if err := checkRead(r, vt.at); err != nil {
				oc.fail(e.out, "replayed %s (%d,%d): %v", kindNames[r.kind], r.u, r.v, err)
			}
			overhead = append(overhead, float64((d-direct[i]).Nanoseconds())/1e3)
			k := r.kind
			if k == kindDistTol {
				k = kindDist
			}
			perKind[k] = append(perKind[k], float64(direct[i].Nanoseconds())/1e3)
		}
	})
	if err != nil {
		return err
	}
	for _, k := range []kind{kindDist, kindBatch, kindPath} {
		oc.metrics["serve.query_us."+kindNames[k]] = median(perKind[k])
	}
	oc.metrics["serve.http_us"] = median(overhead)
	return nil
}

// withWarmShard runs fn on a fresh server with the shard config after
// reading every source's row once, least popular first.
func withWarmShard(e *env, g *graph.Graph, popularity []int, fn func(*serve.Server)) error {
	srv, cleanup, err := newShard(e, g)
	if err != nil {
		return err
	}
	n := int32(g.N())
	for k := len(popularity) - 1; k >= 0; k-- {
		u := int32(popularity[k])
		if err := queryDirect(srv, &request{kind: kindDist, u: u, v: (u + 1) % n}); err != nil {
			return errors.Join(err, cleanup())
		}
	}
	fn(srv)
	return cleanup()
}

// queryDirect answers r through the query API, at r's tier.
func queryDirect(srv *serve.Server, r *request) error {
	tier, tol := admit.Premium, 0.0
	if r.kind == kindDistTol {
		tier, tol = admit.BestEffort, tolerance
	}
	ctx := admit.WithRequest(context.Background(), admit.Request{Client: "bench", Tier: tier})
	var err error
	switch r.kind {
	case kindBatch:
		_, _, _, err = srv.BatchPinned(ctx, r.qs, tol)
	case kindPath:
		_, _, _, _, err = srv.PathPinned(ctx, r.u, r.v)
	default:
		_, _, _, err = srv.BatchPinned(ctx, []serve.Query{{U: r.u, V: r.v}}, tol)
	}
	return err
}

// servingLayers derives the traffic metrics of a serving run from the
// counter deltas over its measured windows, its responses, and its spans.
func servingLayers(e *env, st *traffic, m map[string]float64) {
	delta := func(i int, k string) float64 { return float64(st.after[i][k] - st.before[i][k]) }
	sh := func(k string) float64 { return delta(0, k) }
	rt := func(k string) float64 { return delta(1, k) }

	lookups := sh("serve.store.lookups")
	m["store.t1_hit_ratio"] = ratio(sh("serve.store.t1_hits"), lookups)
	m["store.t2_hit_ratio"] = ratio(sh("serve.store.t2_promotes"), lookups)
	m["store.t3_hit_ratio"] = ratio(sh("serve.store.t3_promotes"), lookups)
	m["store.miss_ratio"] = ratio(sh("serve.store.misses"), lookups)
	m["store.reconcile_frames_per_write"] = ratio(sh("serve.store.dyn.scanned"), sh("serve.dyn.mutations"))

	var rejected, requests float64
	for i := 0; i < 2; i++ {
		for _, k := range []string{"rejected_quota", "rejected_inflight", "rejected_draining"} {
			rejected += delta(i, "admit."+k)
		}
		requests += delta(i, "admit.requests")
	}
	m["admit.rejected_ratio"] = ratio(rejected, requests)

	measured := append(append([]*request(nil), st.open...), st.capacity...)
	var reads, tolerant, sketched float64
	labels := map[string]bool{}
	for _, r := range measured {
		labels[r.label()] = true
		if r.kind == kindEdge {
			continue
		}
		reads++
		if r.kind == kindDistTol {
			tolerant++
			var a serve.Answer
			if r.status == 200 && json.Unmarshal(r.body, &a) == nil && !a.Exact {
				sketched++
			}
		}
	}
	m["oracle.sketch_ratio"] = ratio(sketched, tolerant)
	m["serve.solves_per_kreq"] = ratio(1000*sh("serve.solve.batches"), reads)
	m["serve.coalesced_ratio"] = ratio(sh("serve.cache.coalesced"), sh("serve.cache.lookups"))

	scanned := sh("serve.dyn.scanned") + sh("serve.store.dyn.scanned")
	m["dyn.retag_ratio"] = ratio(sh("serve.dyn.retagged")+sh("serve.store.dyn.retagged"), scanned)
	m["dyn.repair_ratio"] = ratio(sh("serve.dyn.repaired")+sh("serve.store.dyn.repaired"), scanned)
	m["dyn.invalidate_ratio"] = ratio(sh("serve.dyn.invalidated")+sh("serve.store.dyn.dropped"), scanned)

	m["cluster.hedge_ratio"] = ratio(rt("cluster.hedges"), rt("cluster.requests"))
	m["cluster.hedge_waste_ratio"] = ratio(rt("cluster.hedge_cancelled"), rt("cluster.routed"))
	m["cluster.retry_ratio"] = ratio(rt("cluster.retries"), rt("cluster.requests"))

	// Spans of the measured requests: the router's self time, and the
	// time shards spent in /edge handlers.
	var self, routed, writing time.Duration
	for req, group := range byRequest(e.spans.snapshot()) {
		if !labels[req] {
			continue
		}
		for i, s := range group {
			switch {
			case s.layer == layerRouter:
				var children []span
				for j, c := range group {
					if parentOf(group, j) == i {
						children = append(children, c)
					}
				}
				self += selfTime(s, children)
				routed += s.dur()
			case s.layer == layerShard && strings.HasSuffix(s.name, "/edge"):
				writing += s.dur()
			}
		}
	}
	m["cluster.hop_share"] = ratio(float64(self), float64(routed))
	m["dyn.write_busy_ratio"] = ratio(float64(writing), float64(e.window))

	// Reads of the open loop whose time in flight overlapped a write's,
	// against the rest.
	var overlap, clear []float64
	for _, r := range st.open {
		if r.kind == kindEdge {
			continue
		}
		hit := false
		for _, w := range st.open {
			if w.kind == kindEdge && w.sent < r.end && r.sent < w.end {
				hit = true
				break
			}
		}
		if hit {
			overlap = append(overlap, ms(r.latency()))
		} else {
			clear = append(clear, ms(r.latency()))
		}
	}
	m["serve.stall_ratio"] = ratio(quantile(overlap, 0.99), quantile(clear, 0.99))
}
