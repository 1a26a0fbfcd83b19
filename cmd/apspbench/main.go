// Command apspbench regenerates the tables and figures of the paper's
// evaluation section on synthetic stand-in datasets.
//
// Usage:
//
//	apspbench -list
//	apspbench -exp fig8,fig9
//	apspbench -exp all -scale 1.0 -threads 1,2,4,8,16 -runs 3
//	apspbench -kerneljson BENCH_PR6.json
//	apspbench -in roads.txt -weighted -kernel delta -trace trace.json
//
// Every experiment prints the paper's expected qualitative shape next to
// the measured numbers; EXPERIMENTS.md records a full run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"parapsp/internal/bench"
	"parapsp/internal/core"
	"parapsp/internal/gio"
)

func main() {
	var lf gio.LoadFlags
	lf.Register(flag.CommandLine, "in")
	var (
		list    = flag.Bool("list", false, "list available experiments and exit")
		exps    = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		scale   = flag.Float64("scale", 1.0, "dataset scale multiplier (1.0 = harness defaults; larger needs more memory/time)")
		threads = flag.String("threads", "1,2,4,8,16", "comma-separated worker-count sweep")
		runs    = flag.Int("runs", 1, "repetitions per measurement (paper: 10)")
		seed    = flag.Int64("seed", 42, "random seed for the synthetic datasets")
		maxMem  = flag.Uint64("maxmem-mb", 4096, "distance-matrix memory bound in MiB")
		kern    = flag.String("kernel", "", "SSSP kernel of the -trace/-metrics solve: "+strings.Join(core.Kernels(), "|")+"; empty or "+core.KernelAuto+" picks from the graph and the options")
		bjson   = flag.String("benchjson", "", "write the kernels experiment report as JSON to this path and exit")
		kjson   = flag.String("kerneljson", "", "write the kernelcmp experiment report as JSON to this path and exit")
		batchj  = flag.String("batchjson", "", "write the batch experiment report as JSON to this path and exit")
		sjson   = flag.String("servejson", "", "write the serve experiment report as JSON to this path and exit")
		stjson  = flag.String("storejson", "", "write the tiered-store experiment report as JSON to this path and exit")
		ljson   = flag.String("loadjson", "", "write the two-tier load experiment report as JSON to this path and exit")
		trace   = flag.String("trace", "", "run one instrumented ParAPSP solve, write a Chrome trace_event JSON to this path, and exit")
		metrics = flag.Bool("metrics", false, "run one instrumented ParAPSP solve, print its metrics as JSON on stdout, and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-20s %-20s %s\n", e.ID, "["+e.Paper+"]", e.Title)
		}
		return
	}

	sweep, err := parseThreads(*threads)
	if err != nil {
		fatal(err)
	}
	cfg := bench.Config{
		Scale:       *scale,
		Threads:     sweep,
		Runs:        *runs,
		Seed:        *seed,
		MaxMemBytes: *maxMem << 20,
		Kernel:      *kern,
	}

	if *bjson != "" {
		if err := bench.WriteKernelReport(*bjson, cfg); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *bjson)
		return
	}

	if *kjson != "" {
		if err := bench.WriteKernelCompareReport(*kjson, cfg); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *kjson)
		return
	}

	if *batchj != "" {
		if err := bench.WriteBatchReport(*batchj, cfg); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *batchj)
		return
	}

	if *sjson != "" {
		if err := bench.WriteServeReport(*sjson, cfg); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *sjson)
		return
	}

	if *stjson != "" {
		if err := bench.WriteStoreReport(*stjson, cfg); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *stjson)
		return
	}

	if *ljson != "" {
		if err := bench.WriteLoadReport(*ljson, cfg); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *ljson)
		return
	}

	if *trace != "" || *metrics {
		// One instrumented solve; the metrics JSON must stay pure on
		// stdout so it can be piped, so progress goes to stderr.
		workers := tracedWorkers(sweep)
		var traceW io.Writer
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			traceW = f
		}
		var metricsW io.Writer
		if *metrics {
			metricsW = os.Stdout
		}
		if lf.Path != "" {
			// Trace a real graph file instead of the WordNet stand-in.
			loaded, err := lf.Load()
			if err != nil {
				fatal(err)
			}
			err = bench.RunTracedOn(loaded.Graph, cfg, workers, traceW, metricsW)
			if err != nil {
				fatal(err)
			}
		} else if err := bench.RunTraced(cfg, workers, traceW, metricsW); err != nil {
			fatal(err)
		}
		if *trace != "" {
			fmt.Fprintln(os.Stderr, "apspbench: wrote trace to", *trace)
		}
		return
	}

	if *exps == "all" {
		if err := bench.RunAll(cfg, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	for _, id := range strings.Split(*exps, ",") {
		e, err := bench.Get(strings.TrimSpace(id))
		if err != nil {
			fatal(err)
		}
		if err := bench.RunOne(e, cfg, os.Stdout); err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
	}
}

// tracedWorkers picks the worker count for a -trace/-metrics solve: the
// widest of the sweep the machine can run in parallel.
func tracedWorkers(sweep []int) int {
	w := 1
	for _, p := range sweep {
		if p > w && p <= runtime.NumCPU() {
			w = p
		}
	}
	return w
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("apspbench: bad thread count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apspbench:", err)
	os.Exit(1)
}
