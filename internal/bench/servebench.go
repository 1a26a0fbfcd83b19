package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"parapsp/internal/gen"
	"parapsp/internal/serve"
)

// The serve experiment drives parapspd's serving layer (internal/serve)
// over real HTTP with a mixed hot/cold workload: most queries are drawn
// from a small set of hot sources so the LRU row cache can earn its keep,
// the rest are uniform cold misses that force subset solves. It reports
// client-observed latency percentiles, the cache hit rate, and the serve
// counters — the BENCH_PR3.json artifact.

func init() {
	register(Experiment{
		ID:     "serve",
		Paper:  "ours (serving)",
		Title:  "Distance-query service under a mixed hot/cold HTTP workload",
		Expect: "hot-source locality turns into a high cache hit rate; p50 is a cache hit, p99 is a cold subset solve",
		Run:    runServe,
	})
}

// ServeReport is the machine-readable result of the serve experiment,
// written to BENCH_PR3.json by cmd/apspbench -servejson.
type ServeReport struct {
	Dataset    string  `json:"dataset"`
	Vertices   int     `json:"vertices"`
	Arcs       int64   `json:"arcs"`
	CacheRows  int     `json:"cache_rows"`
	Workers    int     `json:"workers"`
	Clients    int     `json:"clients"`
	HotSources int     `json:"hot_sources"`
	HotShare   float64 `json:"hot_share"`
	Requests   int64   `json:"requests"`
	Queries    int64   `json:"queries"`
	ElapsedNs  int64   `json:"elapsed_ns"`
	// Latencies are client-observed, per HTTP request, over loopback.
	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`
	// HitRate is serve.store.t1_hits / serve.cache.lookups at the end of
	// the run; ApproxShare the fraction of answers served from oracle
	// bounds; Throttled the admission layer's quota and inflight
	// rejections.
	HitRate     float64          `json:"hit_rate"`
	ApproxShare float64          `json:"approx_share"`
	Throttled   int64            `json:"throttled"`
	Metrics     map[string]int64 `json:"metrics"`
}

const (
	serveBenchClients  = 4
	serveBenchPerC     = 300
	serveBenchHotSrc   = 32
	serveBenchHotShare = 0.8
)

// BuildServeReport boots a server on a synthetic power-law graph, runs the
// mixed workload, and returns the structured report.
func BuildServeReport(cfg Config) (*ServeReport, error) {
	cfg = cfg.normalized()
	n := int(1500 * cfg.Scale)
	if n < 128 {
		n = 128
	}
	g, err := gen.PowerLawConfiguration(n, 2.5, 2, true, cfg.Seed, gen.Weighting{})
	if err != nil {
		return nil, err
	}
	workers := 1
	for _, p := range cfg.Threads {
		if p > workers && p <= runtime.NumCPU() {
			workers = p
		}
	}
	cacheRows := n / 8
	if cacheRows < 2*serveBenchHotSrc {
		cacheRows = 2 * serveBenchHotSrc // the hot set must be cacheable
	}
	s, err := serve.New(g, serve.Config{
		Workers:     workers,
		CacheBytes:  int64(cacheRows) * int64(n) * 4,
		Landmarks:   16,
		MaxInflight: 4 * serveBenchClients,
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	hot := serveBenchHotSrc
	if hot > n/4 {
		hot = n / 4
	}
	hotSet := make([]int32, hot)
	pick := rand.New(rand.NewSource(cfg.Seed))
	for i := range hotSet {
		hotSet[i] = int32(pick.Intn(n))
	}

	latencies := make([][]int64, serveBenchClients)
	errs := make([]error, serveBenchClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveBenchClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			latencies[c], errs[c] = serveClient(base, cfg.Seed+int64(c)+1, hotSet, n)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if err := s.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	if err := <-serveDone; err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var all []int64
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	snap := s.Metrics().Snapshot()
	rep := &ServeReport{
		Dataset:    "power-law",
		Vertices:   n,
		Arcs:       g.NumArcs(),
		CacheRows:  cacheRows,
		Workers:    workers,
		Clients:    serveBenchClients,
		HotSources: hot,
		HotShare:   serveBenchHotShare,
		Requests:   int64(len(all)),
		Queries:    snap["serve.answers.exact"] + snap["serve.answers.approx"],
		ElapsedNs:  elapsed.Nanoseconds(),
		P50Ns:      percentile(all, 50),
		P99Ns:      percentile(all, 99),
		Throttled:  snap["admit.rejected_quota"] + snap["admit.rejected_inflight"],
		Metrics:    snap,
	}
	if lk := snap["serve.cache.lookups"]; lk > 0 {
		rep.HitRate = float64(snap["serve.store.t1_hits"]) / float64(lk)
	}
	if q := rep.Queries; q > 0 {
		rep.ApproxShare = float64(snap["serve.answers.approx"]) / float64(q)
	}
	return rep, nil
}

// serveClient issues serveBenchPerC requests against base with an 80/20
// hot/cold source mix and a 60/20/20 exact/approx/batch operation mix,
// returning the per-request latencies. A 429 still counts as a request
// (its latency is the backpressure response time) — the report's
// Throttled field says how many there were.
func serveClient(base string, seed int64, hotSet []int32, n int) ([]int64, error) {
	rng := rand.New(rand.NewSource(seed))
	client := &http.Client{}
	src := func() int32 {
		if rng.Float64() < serveBenchHotShare {
			return hotSet[rng.Intn(len(hotSet))]
		}
		return int32(rng.Intn(n))
	}
	lats := make([]int64, 0, serveBenchPerC)
	for i := 0; i < serveBenchPerC; i++ {
		var (
			resp *http.Response
			err  error
		)
		start := time.Now()
		switch op := rng.Float64(); {
		case op < 0.6:
			resp, err = client.Get(fmt.Sprintf("%s/dist?u=%d&v=%d", base, src(), rng.Intn(n)))
		case op < 0.8:
			resp, err = client.Get(fmt.Sprintf("%s/dist?u=%d&v=%d&tol=0.5", base, src(), rng.Intn(n)))
		default:
			var sb strings.Builder
			sb.WriteString(`{"queries":[`)
			for j := 0; j < 4; j++ {
				if j > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, `{"u":%d,"v":%d}`, src(), rng.Intn(n))
			}
			sb.WriteString(`]}`)
			resp, err = client.Post(base+"/batch", "application/json", strings.NewReader(sb.String()))
		}
		if err != nil {
			return nil, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		lats = append(lats, time.Since(start).Nanoseconds())
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
			return nil, fmt.Errorf("bench: unexpected status %d", resp.StatusCode)
		}
	}
	return lats, nil
}

// percentile returns the p-th percentile of sorted (nearest-rank).
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func runServe(cfg Config, w io.Writer) error {
	rep, err := BuildServeReport(cfg)
	if err != nil {
		return err
	}
	t := &Table{
		Title: fmt.Sprintf("mixed hot/cold workload: %d clients x %d requests, %d%% from %d hot sources",
			rep.Clients, serveBenchPerC, int(rep.HotShare*100), rep.HotSources),
		Header: []string{"dataset", "n", "cache rows", "hit rate", "p50", "p99", "approx share", "throttled"},
	}
	t.AddRow(rep.Dataset, rep.Vertices, rep.CacheRows,
		fmt.Sprintf("%.1f%%", rep.HitRate*100),
		FormatDuration(time.Duration(rep.P50Ns)),
		FormatDuration(time.Duration(rep.P99Ns)),
		fmt.Sprintf("%.1f%%", rep.ApproxShare*100),
		rep.Throttled)
	t.Fprint(w)

	ct := &Table{
		Title:  "serve counters",
		Header: []string{"counter", "value"},
	}
	for _, k := range sortedKeys(rep.Metrics) {
		ct.AddRow(k, rep.Metrics[k])
	}
	ct.Fprint(w)
	return nil
}

// WriteServeReport runs the serve experiment and writes its structured
// report as indented JSON to path (the BENCH_PR3.json artifact).
func WriteServeReport(path string, cfg Config) error {
	rep, err := BuildServeReport(cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
