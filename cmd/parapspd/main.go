// Command parapspd is the long-running distance-query daemon: it loads a
// graph (or generates a synthetic one), builds the landmark oracle, and
// answers distance/path queries over HTTP from a tiered distance store —
// a hot LRU of uncompressed rows, a warm tier of delta-compressed frames,
// and an optional cold tier spilled to disk — backed by the subset solver.
//
// Usage:
//
//	parapspd -graph social.txt.gz -undirected -addr :8080 -workers 4 &
//	curl 'localhost:8080/dist?u=3&v=17'
//	curl 'localhost:8080/dist?u=3&v=17&tol=0.5'     # approximate ok
//	curl 'localhost:8080/path?u=3&v=17'
//	curl -d '{"queries":[{"u":1,"v":2},{"u":1,"v":9}]}' localhost:8080/batch
//	curl -d '{"op":"insert","u":3,"v":17,"w":2}' localhost:8080/edge
//	curl 'localhost:8080/metrics'
//
// Vertex ids: u and v in every query, and the vertices of a /path answer,
// are dense ids 0..n-1, numbered in first-seen order of the edge list
// (Matrix Market and METIS files: the file's 1-based index minus one),
// not the file's labels. `apsp -path`, by contrast, takes file labels.
// When the two differ, the daemon prints one start-up line naming the
// mapping, e.g. "file label 17 is id 430".
//
// The graph is mutable while serving: POST /edge applies one edge
// insert/delete/reweight and publishes a new immutable snapshot without
// blocking readers; every response carries the answering snapshot's
// version in X-Parapsp-Graph-Version.
//
// SIGINT/SIGTERM drain gracefully: in-flight requests and mutations
// complete, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parapsp/internal/gen"
	"parapsp/internal/gio"
	"parapsp/internal/graph"
	"parapsp/internal/serve"
)

func main() {
	var lf gio.LoadFlags
	lf.Register(flag.CommandLine, "graph")
	flag.Lookup("graph").Usage = "input graph file (edge lists may be .gz); queries name its vertices by dense id 0..n-1 in first-seen edge-list order, not by file label"
	var (
		genN         = flag.Int("gen", 0, "instead of -graph: serve a synthetic Barabasi-Albert graph with this many vertices")
		addr         = flag.String("addr", ":8080", "listen address (host:0 picks a free port)")
		workers      = flag.Int("workers", 1, "solver workers per subset solve")
		cacheBytes   = flag.Int64("cache-bytes", 0, "hot-tier (T1) byte budget for uncompressed rows, 4*n bytes per row (0: 256 rows)")
		warmBytes    = flag.Int64("warm-bytes", 0, "warm-tier (T2) byte budget for delta-compressed rows (0: 4x the hot budget, negative disables)")
		spillBytes   = flag.Int64("spill-bytes", 0, "cold-tier (T3) byte budget for frames spilled to disk (0 disables; requires -spill-dir)")
		spillDir     = flag.String("spill-dir", "", "directory of the cold-tier arena file (reopened on restart to warm-start the tier)")
		oracleFile   = flag.String("oracle-file", "", "persist the landmark oracle here: load if it matches the graph, else build and save")
		landmarks    = flag.Int("landmarks", 16, "oracle landmarks (negative disables approximate answers)")
		maxInflight  = flag.Int("max-inflight", 64, "admitted concurrent queries before 429")
		beShare      = flag.Float64("besteffort-share", 0, "fraction of -max-inflight best-effort requests may occupy (0: default 0.75; the rest is the premium reserve)")
		quotaRPS     = flag.Float64("quota-rps", 0, "per-client token-bucket refill rate in requests/second (0 disables quotas)")
		quotaBurst   = flag.Int("quota-burst", 0, "per-client token-bucket depth (0: ceil of -quota-rps)")
		tierHeader   = flag.String("tier-header", "", "request header carrying the SLO tier label, premium|besteffort (default X-Parapsp-Tier)")
		maxBatch     = flag.Int("max-batch", 256, "largest accepted /batch request")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound after SIGTERM")
		seed         = flag.Int64("seed", 42, "random seed for -gen")
		shardID      = flag.String("shard-id", "", "identity label reported in /healthz when this daemon is one shard of a parapsprouter cluster")
	)
	flag.Parse()
	if (lf.Path == "") == (*genN == 0) {
		fmt.Fprintln(os.Stderr, "parapspd: exactly one of -graph or -gen is required")
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	var g *graph.Graph
	var labels []int64
	var err error
	if *genN > 0 {
		g, err = gen.BarabasiAlbert(*genN, 4, *seed, gen.Weighting{})
	} else {
		var loaded *gio.Result
		loaded, err = lf.Load()
		if loaded != nil {
			g, labels = loaded.Graph, loaded.Labels
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("parapspd: loaded %v in %s\n", g, time.Since(start).Round(time.Millisecond))
	for id, label := range labels {
		if label != int64(id) {
			fmt.Printf("parapspd: queries take dense ids 0..%d in first-seen order, not file labels: file label %d is id %d\n",
				len(labels)-1, label, id)
			break
		}
	}

	start = time.Now()
	s, err := serve.New(g, serve.Config{
		Workers:         *workers,
		CacheBytes:      *cacheBytes,
		WarmBytes:       *warmBytes,
		SpillBytes:      *spillBytes,
		SpillDir:        *spillDir,
		OraclePath:      *oracleFile,
		Landmarks:       *landmarks,
		MaxInflight:     *maxInflight,
		BestEffortShare: *beShare,
		QuotaRPS:        *quotaRPS,
		QuotaBurst:      *quotaBurst,
		TierHeader:      *tierHeader,
		MaxBatch:        *maxBatch,
		RequestTimeout:  *timeout,
		ShardID:         *shardID,
	})
	if err != nil {
		fatal(err)
	}
	if o := s.Oracle(); o != nil {
		fmt.Printf("parapspd: built %v in %s\n", o, time.Since(start).Round(time.Millisecond))
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("parapspd: listening on %s\n", l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- s.Serve(l) }()
	select {
	case err := <-errCh:
		if err != nil {
			fatal(err)
		}
		return
	case <-ctx.Done():
	}

	fmt.Println("parapspd: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	if err := <-errCh; err != nil {
		fatal(err)
	}
	snap := s.Metrics().Snapshot()
	fmt.Printf("parapspd: drained cleanly (requests=%d t1_hits=%d t2_promotes=%d t3_promotes=%d misses=%d demotes=%d)\n",
		snap["admit.admitted"], snap["serve.store.t1_hits"], snap["serve.store.t2_promotes"],
		snap["serve.store.t3_promotes"], snap["serve.store.misses"], snap["serve.store.demotes"])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "parapspd:", err)
	os.Exit(1)
}
