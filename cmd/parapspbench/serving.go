package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"parapsp/internal/admit"
	"parapsp/internal/baseline"
	"parapsp/internal/cluster"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/serve"
)

// serveSpec is one serving workload's deployment and traffic.
type serveSpec struct {
	shards int     // serve.Server replicas
	routed bool    // clients reach the shards through a cluster.Router
	rate   float64 // open-loop reads per second
	writes float64 // /edge reweights per second, in both traffic phases
}

// serve-read: a router in front of two replicas, reads only.
func runServeRead(e *env) (*outcome, error) {
	return runServing(e, serveSpec{shards: 2, routed: true, rate: 500})
}

// serve-mutate: one shard reached directly, reads beside 5 writes/s.
func runServeMutate(e *env) (*outcome, error) {
	return runServing(e, serveSpec{shards: 1, rate: 250, writes: 5})
}

// verifySample is the sampling rate of reads checked at mutated versions.
const verifySample = 20

// setupRepeats is how often a serving run repeats its set-up before the
// traffic, and again after it; setup_s is the median of all of them.
const setupRepeats = 8

// Phases of a serving run. The open-loop share of the window measures
// latency at the fixed rate; the rest measures closed-loop capacity.
const (
	openShare  = 0.6
	warmStream = time.Second     // closed-loop warm with the read stream
	writeWarm  = 3 * time.Second // unmeasured open loop with writes
)

// shardConfig is the per-shard deployment: T1 = all-hot/64, T2 =
// 3*all-hot/64, T3 spill = all-hot/8 (all-hot being every row
// uncompressed), Workers = 1 as parapspd defaults, everything else at
// serve's defaults.
func shardConfig(n int, spillDir string) serve.Config {
	allHot := int64(n) * int64(n) * 4
	return serve.Config{
		Workers:    1,
		CacheBytes: allHot / 64,
		WarmBytes:  3 * allHot / 64,
		SpillBytes: allHot / 8,
		SpillDir:   spillDir,
	}
}

// newShard builds a serve.Server with the shard config and its own spill
// directory under the output directory; cleanup shuts it down and removes
// the directory.
func newShard(e *env, g *graph.Graph) (srv *serve.Server, cleanup func() error, err error) {
	dir, err := os.MkdirTemp(e.outdir, "spill-")
	if err != nil {
		return nil, nil, err
	}
	srv, err = serve.New(g, shardConfig(g.N(), dir))
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return srv, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return errors.Join(srv.Shutdown(ctx), os.RemoveAll(dir))
	}, nil
}

// daemon is one in-process HTTP server on a loopback port.
type daemon struct {
	hs   *http.Server
	addr string
	done chan error
}

func listen(h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{hs: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// deployment is a running serving stack: shards, their listeners, and
// the router when the workload is routed.
type deployment struct {
	shards   []*serve.Server
	cleanups []func() error
	daemons  []*daemon // shard listeners, then the router's
	router   *cluster.Router
	url      string // where clients send requests
}

// deploy starts the workload's stack. In a traced run every shard handler
// and the router handler are wrapped to record spans.
func deploy(e *env, g *graph.Graph, spec serveSpec) (*deployment, error) {
	d := &deployment{}
	var members []cluster.Shard
	for i := 0; i < spec.shards; i++ {
		srv, cleanup, err := newShard(e, g)
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		d.shards = append(d.shards, srv)
		d.cleanups = append(d.cleanups, cleanup)
		id := fmt.Sprintf("s%d", i)
		var h http.Handler = srv.Handler()
		if e.spans != nil {
			h = e.spans.wrap("shard "+id, layerShard, h)
		}
		dm, err := listen(h)
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		d.daemons = append(d.daemons, dm)
		members = append(members, cluster.Shard{ID: id, Addr: dm.addr})
		d.url = "http://" + dm.addr
	}
	if !spec.routed {
		return d, nil
	}
	r, err := cluster.New(cluster.Config{Shards: members})
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	d.router = r
	r.Start()
	var h http.Handler = r.Handler()
	if e.spans != nil {
		h = e.spans.wrap("router", layerRouter, h)
	}
	dm, err := listen(h)
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	d.daemons = append(d.daemons, dm)
	d.url = "http://" + dm.addr
	for deadline := time.Now().Add(10 * time.Second); r.Healthy() < spec.shards; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return nil, errors.Join(fmt.Errorf("router: %d of %d shards healthy", r.Healthy(), spec.shards), d.close())
		}
	}
	return d, nil
}

// close stops the stack front to back and removes the spill directories.
func (d *deployment) close() error {
	var errs []error
	for i := len(d.daemons) - 1; i >= 0; i-- {
		errs = append(errs, d.daemons[i].close())
		if d.router != nil && i == len(d.daemons)-1 {
			d.router.Close()
		}
	}
	for _, c := range d.cleanups {
		errs = append(errs, c())
	}
	return errors.Join(errs...)
}

// counters sums the shards' metric registries, and returns the router's.
func (d *deployment) counters() (shards, router map[string]int64) {
	shards = map[string]int64{}
	for _, s := range d.shards {
		for k, v := range s.Metrics().Snapshot() {
			shards[k] += v
		}
	}
	router = map[string]int64{}
	if d.router != nil {
		router = d.router.Metrics().Snapshot()
	}
	return shards, router
}

// httpClient sends requests over at most one connection per sender.
type httpClient struct {
	base    string
	clients []*http.Client
	spans   *spanLog
}

func newHTTPClient(base string, conns int, spans *spanLog) *httpClient {
	c := &httpClient{base: base, spans: spans}
	for i := 0; i < conns; i++ {
		c.clients = append(c.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return c
}

func (c *httpClient) close() {
	for _, cl := range c.clients {
		cl.CloseIdleConnections()
	}
}

// send performs r on connection conn. In a traced run the request carries
// its label in X-Parapsp-Client (quotas are off, so the label changes no
// policy) and the round trip is recorded as the request's root span.
func (c *httpClient) send(conn int, r *request) {
	hr, err := r.httpRequest(c.base)
	if err != nil {
		r.err = err
		return
	}
	if c.spans != nil {
		hr.Header.Set(admit.ClientHeader, r.label())
	}
	start := time.Now()
	resp, err := c.clients[conn].Do(hr)
	if err != nil {
		r.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		r.err = err
		return
	}
	r.record(resp.StatusCode, resp.Header, body)
	if c.spans != nil {
		c.spans.add(span{name: "client " + hr.URL.Path, layer: layerClient, req: r.label(), start: start, end: time.Now()})
	}
}

// runServing runs a serving workload: set-up, warm-up, an open-loop window
// at spec.rate, a closed-loop capacity window, then verification of every
// response.
func runServing(e *env, spec serveSpec) (*outcome, error) {
	in, err := powerLawInput(e.n, e.seed)
	if err != nil {
		return nil, err
	}
	g := in.g
	oc := &outcome{metrics: map[string]float64{}}

	// Set-up: serve.New and a listener for every shard, plus the router
	// until it counts every shard healthy. Ground truth is excluded. Half
	// the repetitions run before the traffic and half after, so their
	// median spans the host conditions of the whole run.
	var setups []float64
	setup := func() (*deployment, error) {
		runtime.GC()
		start := time.Now()
		dep, err := deploy(e, g, spec)
		setups = append(setups, time.Since(start).Seconds())
		return dep, err
	}
	var dep *deployment
	for i := 0; i < setupRepeats; i++ {
		if dep != nil {
			if err := dep.close(); err != nil {
				return nil, err
			}
		}
		if dep, err = setup(); err != nil {
			return nil, err
		}
	}
	client := newHTTPClient(dep.url, e.procs, e.spans)
	st := serveTraffic(e, spec, g, dep, client, oc)
	client.close()
	if err := dep.close(); err != nil {
		return nil, err
	}
	for i := 0; i < setupRepeats; i++ {
		if dep, err = setup(); err != nil {
			return nil, err
		}
		if err := dep.close(); err != nil {
			return nil, err
		}
	}
	truth := baseline.DijkstraAPSP(g)
	sent := append(append(append([]*request(nil), st.pre...), st.open...), st.capacity...)
	oc.attempted += int64(len(sent))
	verifyServing(e, g, truth, sent, oc)

	fmt.Fprintf(e.out, "graph: n=%d arcs=%d; open loop %.0f/s: %d requests, pacer lag p99 %s, backlog max %d end %d, achieved %.4f; capacity: %d reads\n",
		g.N(), g.NumArcs(), spec.rate+spec.writes, len(st.open), st.load.lagP99, st.load.backlogMax, st.load.backlogEnd, st.load.achieved, st.capReads)
	if st.load.achieved < 0.97 {
		fmt.Fprintln(e.out, "WARNING: the open loop fell behind its schedule; the rate is past the knee")
	}
	var lat []float64
	byKind := map[kind][]float64{}
	for _, r := range st.open {
		if r.kind != kindEdge {
			lat = append(lat, ms(r.latency()))
		}
		byKind[r.kind] = append(byKind[r.kind], ms(r.latency()))
	}
	fmt.Fprintf(e.out, "open-loop reads ms: p50 %.4g p90 %.4g p95 %.4g p99 %.4g p99.9 %.4g\n",
		quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99), quantile(lat, 0.999))
	for k := kind(0); k < numKinds; k++ {
		if xs := byKind[k]; len(xs) > 0 {
			fmt.Fprintf(e.out, "  %-8s n=%d p50 %.4g p90 %.4g p99 %.4g ms\n", kindNames[k], len(xs), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99))
		}
	}
	m := oc.metrics
	if e.spans == nil {
		m["setup_s"] = median(setups)
		m["peak_heap_mib"] = st.heap
		m["p50_ms"] = median(lat)
		m["capacity_per_s"] = float64(st.capReads) / st.capElapsed.Seconds()
		return oc, nil
	}
	m["trace.p50_ms"] = median(lat)
	servingLayers(e, st, m)
	var log solveLog
	for i := 0; i < 3; i++ {
		if err := probeSolve(e, g, truth, &log, oc); err != nil {
			return nil, err
		}
	}
	log.metrics(m)
	if err := probeLayers(e, in, truth, st.missed, oc); err != nil {
		return nil, err
	}
	return oc, nil
}

// traffic is what a serving run's measured windows sent and saw.
type traffic struct {
	pre            []*request    // the unmeasured open loop with writes
	open, capacity []*request    // the open-loop and closed-loop windows'
	load           loadStats     // of the open loop
	capReads       int           // reads answered in the capacity window
	capElapsed     time.Duration // until its last request completed
	heap           float64       // peak heap in the open-loop window, MiB
	missed         []int32       // sources of single-source reads a solver answered
	// Summed shard counters ([0]) and router counters ([1]) around the
	// measured windows.
	before, after [2]map[string]int64
}

// openSchedule draws the open loop's requests over window: Poisson reads
// at spec.rate and, when edges is set, Poisson writes at spec.writes,
// sorted by due time.
func openSchedule(spec serveSpec, reads *mix, edges *edgePicker, rng *rand.Rand, window time.Duration) []*request {
	var reqs []*request
	for _, due := range poissonDue(rng, spec.rate, window) {
		r := reads.read()
		r.due = due
		reqs = append(reqs, r)
	}
	if edges == nil {
		return reqs
	}
	for _, due := range poissonDue(rng, spec.writes, window) {
		w := edges.write()
		w.due = due
		reqs = append(reqs, w)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	return reqs
}

// serveTraffic warms the stack and runs the two measured windows. The
// warm-up's responses are verified as soon as it ends, against a reference
// matrix dropped right after, so what the benchmark holds during the open
// loop is its schedule alone and the peak heap sampled there is the
// serving stack's plus a constant.
func serveTraffic(e *env, spec serveSpec, g *graph.Graph, dep *deployment, client *httpClient, oc *outcome) *traffic {
	n := g.N()
	popularity := rand.New(rand.NewSource(e.seed + 5)).Perm(n)
	st := &traffic{}
	var ids atomic.Int64
	tag := func(r *request) *request {
		r.id = int(ids.Add(1))
		return r
	}

	// Warm: every source once, least popular first, so the tiers fill
	// and the popular rows end up hottest; then the read stream.
	sweep := newMix(popularity, e.seed+1)
	var warm []*request
	for k := n - 1; k >= 0; k-- {
		warm = append(warm, tag(&request{kind: kindDist, u: int32(popularity[k]), v: sweep.target()}))
	}
	openLoop(warm, e.procs, client.send)
	mixes := make([]*mix, e.procs)
	for c := range mixes {
		mixes[c] = newMix(popularity, e.seed+10+int64(c))
	}
	warm = append(warm, closedLoop(e.procs, warmStream, func(c int, _ time.Duration) *request {
		return tag(mixes[c].read())
	}, client.send)...)
	oc.attempted += int64(len(warm))
	verifyServing(e, g, baseline.DijkstraAPSP(g), warm, oc)
	warm = nil
	for i, s := range dep.shards {
		ss := s.StoreStats()
		cfg := shardConfig(n, "")
		fmt.Fprintf(e.out, "shard s%d warm: T2 %d/%d bytes, T3 %d/%d bytes\n", i, ss.WarmBytes, cfg.WarmBytes, ss.ColdBytes, cfg.SpillBytes)
	}

	rng := rand.New(rand.NewSource(e.seed + 2))
	reads := newMix(popularity, e.seed+3)
	var edges *edgePicker
	if spec.writes > 0 {
		// Writes reshape the tiers: the first ones after the warm-up scan
		// full tiers and invalidate part of them. The open loop with writes
		// runs unmeasured first, so the measured windows see the steady
		// state of reads beside writes rather than that transient.
		edges = newEdgePicker(g, e.seed+4)
		st.pre = openSchedule(spec, reads, edges, rng, writeWarm)
		for _, r := range st.pre {
			tag(r)
		}
		openLoop(st.pre, e.procs, client.send)
	}

	openWindow := time.Duration(openShare * float64(e.window))
	st.open = openSchedule(spec, reads, edges, rng, openWindow)
	for _, r := range st.open {
		tag(r)
	}

	st.before[0], st.before[1] = dep.counters()
	runtime.GC()
	st.heap = peakHeap(func() { st.load = openLoop(st.open, e.procs, client.send) })

	// Capacity: reads back to back on every connection, with writes at the
	// open loop's rate taken by whichever connection first sees one due.
	var nextWrite atomic.Int64
	interval := time.Duration(0)
	if spec.writes > 0 {
		interval = time.Duration(float64(time.Second) / spec.writes)
	}
	writers := make([]*edgePicker, e.procs)
	for c := range mixes {
		mixes[c] = newMix(popularity, e.seed+20+int64(c))
		if edges != nil {
			writers[c] = newEdgePicker(g, e.seed+30+int64(c))
		}
	}
	st.capacity = closedLoop(e.procs, e.window-openWindow, func(c int, now time.Duration) *request {
		if w := nextWrite.Load(); interval > 0 && int64(now) >= w && nextWrite.CompareAndSwap(w, w+int64(interval)) {
			return tag(writers[c].write())
		}
		return tag(mixes[c].read())
	}, client.send)
	st.after[0], st.after[1] = dep.counters()

	for _, r := range st.capacity {
		if r.kind != kindEdge && r.err == nil && r.status == http.StatusOK {
			st.capReads++
		}
		st.capElapsed = max(st.capElapsed, r.end)
	}
	seen := map[int32]bool{}
	for _, r := range st.open {
		if (r.kind == kindDist || r.kind == kindPath) && r.solver != "" && r.solver != serve.SolverCache && !seen[r.u] {
			seen[r.u] = true
			st.missed = append(st.missed, r.u)
		}
	}
	return st
}

// verifyServing checks every response: reads against the exact distances
// at the graph version each response reports, writes against the
// benchmark's own copy of the graph replayed in version order. Reads at
// versions after the first, whose truth costs a Dijkstra per source, are
// checked one in verifySample.
func verifyServing(e *env, g *graph.Graph, truth *matrix.Matrix, all []*request, oc *outcome) {
	vt := &versionTruth{base: truth, graphs: map[uint64]*graph.Graph{1: g}}
	var reads, writes []*request
	for _, r := range all {
		if r.kind == kindEdge {
			writes = append(writes, r)
		} else {
			reads = append(reads, r)
		}
	}
	vt.applyWrites(e, writes, oc)
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].version < reads[j].version })
	for _, r := range reads {
		if r.version > 1 && r.id%verifySample != 0 {
			continue
		}
		if err := checkRead(r, vt.at); err != nil {
			oc.fail(e.out, "%s (%d,%d): %v", kindNames[r.kind], r.u, r.v, err)
		}
	}
}

// versionTruth serves exact rows per graph version: version 1 from the
// reference matrix, later versions by Dijkstra on the benchmark's copy of
// the graph at that version, cached for one version at a time (callers
// ask in version order).
type versionTruth struct {
	base   *matrix.Matrix
	graphs map[uint64]*graph.Graph
	cur    uint64
	rows   map[int32][]matrix.Dist
}

func (t *versionTruth) at(ver uint64, u int32) ([]matrix.Dist, *graph.Graph, bool) {
	g, ok := t.graphs[ver]
	if !ok {
		return nil, nil, false
	}
	if ver == 1 {
		return t.base.Row(int(u)), g, true
	}
	if ver != t.cur {
		t.cur, t.rows = ver, map[int32][]matrix.Dist{}
	}
	row := t.rows[u]
	if row == nil {
		row = make([]matrix.Dist, g.N())
		baseline.DijkstraSSSP(g, u, row)
		t.rows[u] = row
	}
	return row, g, true
}

// applyWrites orders the answered /edge writes by the version each
// published and replays them on the benchmark's copy of the graph, so
// every version a read reports has a graph. Each write must have published
// the next version, reported the weight the edge had before it, and the
// direction of its change.
func (t *versionTruth) applyWrites(e *env, writes []*request, oc *outcome) {
	type applied struct {
		r       *request
		Version uint64 `json:"version"`
		Kind    string `json:"kind"`
		OldW    int64  `json:"old_w"`
	}
	var done []applied
	for _, r := range writes {
		a := applied{r: r}
		switch {
		case r.err != nil:
			oc.fail(e.out, "edge (%d,%d): %v", r.u, r.v, r.err)
		case r.status != http.StatusOK:
			oc.fail(e.out, "edge (%d,%d): status %d: %.200s", r.u, r.v, r.status, r.body)
		case json.Unmarshal(r.body, &a) != nil:
			oc.fail(e.out, "edge (%d,%d): undecodable %.200s", r.u, r.v, r.body)
		default:
			done = append(done, a)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Version < done[j].Version })
	g, ver := t.graphs[1], uint64(1)
	for _, a := range done {
		r := a.r
		if a.Version != ver+1 {
			oc.fail(e.out, "edge (%d,%d) published version %d after %d", r.u, r.v, a.Version, ver)
			return
		}
		old, ok := g.ArcWeight(r.u, r.v)
		want := "none"
		switch {
		case r.w < old:
			want = "improve"
		case r.w > old:
			want = "worsen"
		}
		if !ok || int64(old) != a.OldW || a.Kind != want {
			oc.fail(e.out, "edge (%d,%d,w=%d) at version %d: old_w %d kind %s, want %d %s",
				r.u, r.v, r.w, a.Version, a.OldW, a.Kind, old, want)
		}
		next, _, _, err := g.WithArc(r.u, r.v, r.w)
		if err != nil {
			oc.fail(e.out, "edge (%d,%d): %v", r.u, r.v, err)
			return
		}
		g, ver = next, a.Version
		t.graphs[ver] = g
	}
}
