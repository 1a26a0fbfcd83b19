// Command apspbench regenerates the tables and figures of the paper's
// evaluation section on synthetic stand-in datasets.
//
// Usage:
//
//	apspbench -list
//	apspbench -exp fig8,fig9
//	apspbench -exp all -scale 1.0 -threads 1,2,4,8,16 -runs 3
//
// Every experiment prints the paper's expected qualitative shape next to
// the measured numbers; EXPERIMENTS.md records a full run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"parapsp/internal/bench"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments and exit")
		exps    = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		scale   = flag.Float64("scale", 1.0, "dataset scale multiplier (1.0 = harness defaults; larger needs more memory/time)")
		threads = flag.String("threads", "1,2,4,8,16", "comma-separated worker-count sweep")
		runs    = flag.Int("runs", 1, "repetitions per measurement (paper: 10)")
		seed    = flag.Int64("seed", 42, "random seed for the synthetic datasets")
		maxMem  = flag.Uint64("maxmem-mb", 4096, "distance-matrix memory bound in MiB")
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
