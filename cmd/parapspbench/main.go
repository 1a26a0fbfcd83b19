// Command parapspbench is the repository's one fixed benchmark. It runs a
// named workload from a seed, checks every answer it times, and prints a
// human-readable report followed, as the last line of standard output, by
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reruns the workload with spans recorded around the public
// calls of each layer, writes them as a Chrome trace, and reports the
// per-layer metrics instead. The metric names and units are the ones
// BENCHMARK.json at the repository root lists; README.md explains them.
//
// Usage:
//
//	parapspbench -workload apsp-powerlaw -seed 1 -seconds 10 -trace 0
//
// The process is single: solvers, shards, router and load generator all
// run in it with GOMAXPROCS equal to the host's CPU count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric: its name and unit, exactly as
// BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them from its untraced run. For the apsp-* workloads
// the timed operation is one full solve and capacity is rows solved per
// second; for the serve-* workloads it is one read request of the
// open-loop window, timed from its due time, and capacity is the
// closed-loop read rate. Tail percentiles are printed in the report but
// are not end-to-end metrics: on a shared 2-CPU host their run-to-run
// spread exceeds any bound a regression check could use (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mib", "MiB"},
	{"p50_ms", "ms"},
	{"capacity_per_s", "1/s"},
}

// perLayer are the traced run's metrics, named <layer>.<measure> after the
// repository's internal packages. Times come from replaying the workload's
// own inputs through each layer's public call; ratios and counts come from
// the workload's traffic and are zero for a layer the workload bypasses.
var perLayer = []metricDef{
	{"gio.load_ms", "ms"},
	{"order.ordering_ms", "ms"},
	{"core.sssp_ms", "ms"},
	{"core.edge_scans", "count"},
	{"core.pops", "count"},
	{"core.folds", "count"},
	{"core.batch_sweeps", "count"},
	{"core.fold_skip_ratio", "ratio"},
	{"core.subset_ms_per_row", "ms"},
	{"kernel.fold_ns_per_entry", "ns"},
	{"store.t1_hit_ratio", "ratio"},
	{"store.t2_hit_ratio", "ratio"},
	{"store.t3_hit_ratio", "ratio"},
	{"store.miss_ratio", "ratio"},
	{"store.decode_us_per_row", "us"},
	{"store.frame_bytes_per_row", "bytes"},
	{"store.reconcile_frames_per_write", "count"},
	{"oracle.build_ms", "ms"},
	{"oracle.bounds_us", "us"},
	{"oracle.sketch_ratio", "ratio"},
	{"admit.admit_us", "us"},
	{"admit.rejected_ratio", "ratio"},
	{"serve.query_us.dist", "us"},
	{"serve.query_us.batch", "us"},
	{"serve.query_us.path", "us"},
	{"serve.http_us", "us"},
	{"serve.solves_per_kreq", "1/kreq"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.stall_ratio", "ratio"},
	{"dyn.write_busy_ratio", "ratio"},
	{"dyn.retag_ratio", "ratio"},
	{"dyn.repair_ratio", "ratio"},
	{"dyn.invalidate_ratio", "ratio"},
	{"cluster.hop_share", "ratio"},
	{"cluster.hedge_ratio", "ratio"},
	{"cluster.hedge_waste_ratio", "ratio"},
	{"cluster.retry_ratio", "ratio"},
	{"trace.p50_ms", "ms"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"apsp-powerlaw": runAPSPPowerLaw,
	"apsp-grid":     runAPSPGrid,
	"serve-read":    runServeRead,
	"serve-mutate":  runServeMutate,
}

// env is what a workload runner gets: its settings, where to write the
// human-readable report, and the span log of a traced run (nil untraced).
type env struct {
	workload string
	seed     int64
	window   time.Duration
	n        int
	procs    int
	outdir   string
	out      io.Writer
	spans    *spanLog
}

// outcome is a workload's tally: operations timed, operations that failed
// or answered wrongly, and the measured metric values by name.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
}

func (o *outcome) fail(w io.Writer, format string, args ...any) {
	o.failed++
	if o.failed <= 10 {
		fmt.Fprintf(w, "FAIL: "+format+"\n", args...)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload, prints the report, and returns the
// exit code: 0 when every answer was correct, 1 otherwise, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("parapspbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	n := fs.Int("n", 2000, "vertex count of the generated graphs (the grid uses the largest square not above it)")
	outdir := fs.String("outdir", ".bench_build", "directory for spill files and span files")
	spansPath := fs.String("spans", "", "Chrome trace output of a traced run (default <outdir>/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || *n < 64 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "parapspbench: need -workload in {%s}, -seconds >= 1, -n >= 64, -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "parapspbench:", err)
		return 1
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		n:        *n,
		procs:    runtime.GOMAXPROCS(0),
		outdir:   *outdir,
		out:      stdout,
	}
	if *trace == 1 {
		e.spans = newSpanLog()
	}
	fmt.Fprintf(stdout, "parapspbench %s seed=%d window=%s n=%d trace=%d\n",
		e.workload, e.seed, e.window, e.n, *trace)
	fmt.Fprintf(stdout, "host: GOMAXPROCS=%d NumCPU=%d %s revision=%s\n",
		e.procs, runtime.NumCPU(), runtime.Version(), vcsRevision())

	oc, err := runner(e)
	if err != nil {
		fmt.Fprintln(stderr, "parapspbench:", err)
		return 1
	}
	defs := endToEnd
	if e.spans != nil {
		defs = perLayer
		path := *spansPath
		if path == "" {
			path = filepath.Join(e.outdir, "spans-"+e.workload+".json")
		}
		if err := e.spans.writeChrome(path); err != nil {
			fmt.Fprintln(stderr, "parapspbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", e.spans.len(), path)
	}
	res := result{
		Correct:   oc.failed == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := oc.metrics[d.name]
		if !ok {
			fmt.Fprintf(stderr, "parapspbench: workload %s did not measure %s\n", e.workload, d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(stdout, "attempted=%d failed=%d\n", oc.attempted, oc.failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "parapspbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// vcsRevision is the commit the binary was built from, when the build saw
// a repository.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
