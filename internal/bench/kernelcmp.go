package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"parapsp/internal/core"
	"parapsp/internal/gen"
	"parapsp/internal/graph"
)

// The kernelcmp experiment races the registered SSSP kernels that solve
// weighted graphs — the paper's modified Dijkstra, the stepping kernels,
// the heap ablation and the weighted lane kernel — through the same
// ParAPSP pipeline on weighted power-law and grid graphs, each as a full
// solve and as a seeded 64-source subset solve (a serving miss of a
// /batch request, where few finished rows exist to fold). Every kernel
// must produce the identical rows (the checksums are asserted, not just
// reported); the interesting output is the time and work-counter
// differences, which separate the queue discipline and the lane sweep from
// the fold/row-reuse machinery the scalar kernels share.

func init() {
	register(Experiment{
		ID:     "kernelcmp",
		Paper:  "ours (kernel registry)",
		Title:  "SSSP source-kernel comparison through the shared pipeline",
		Expect: "identical checksums; folding stepping kernels lead full weighted power-law solves, sweep leads its 64-source subsets, dijkstra holds grids, heap pays queue overhead, the default dispatch lands within a few percent of the per-dataset best",
		Run:    runKernelCompare,
	})
}

// cmpKernels are the kernels the experiment races (msbfs needs an
// unweighted graph). The "auto" row runs after them with Options.Kernel
// unset — the default dispatch — and records the kernel it resolved to,
// so the regression gate can hold the default to the per-dataset best.
var cmpKernels = []string{
	core.KernelDijkstra,
	core.KernelDelta,
	core.KernelDeltaStar,
	core.KernelRho,
	core.KernelParDij,
	core.KernelHeap,
	core.KernelSweep,
}

// kernelCmpSubset is the source count of each graph's subset dataset.
const kernelCmpSubset = 64

// KernelCompareReport is the machine-readable result of the kernelcmp
// experiment, written to BENCH_PR6.json by cmd/apspbench -kerneljson.
type KernelCompareReport struct {
	Kernels  []string               `json:"kernels"`
	Datasets []KernelCompareDataset `json:"datasets"`
}

// KernelCompareDataset is one graph's kernel race: a full solve, or a
// subset solve when the name ends in "/subset64".
type KernelCompareDataset struct {
	Dataset  string                `json:"dataset"`
	Vertices int                   `json:"vertices"`
	Arcs     int64                 `json:"arcs"`
	Workers  int                   `json:"workers"`
	Checksum uint64                `json:"checksum"` // shared by construction: divergence is an error
	Rows     []KernelCompareResult `json:"rows"`
}

// KernelCompareResult is one kernel's solve on one dataset.
type KernelCompareResult struct {
	Kernel     string  `json:"kernel"`
	ElapsedNs  int64   `json:"elapsed_ns"`
	VsDijkstra float64 `json:"vs_dijkstra"` // elapsed relative to the dijkstra row (1.0 = equal)
	// Resolved is the concrete kernel that ran — only set on the "auto"
	// row, where the selector's pick is the datum.
	Resolved string `json:"resolved,omitempty"`
	// AllocsPerSolve is the steady-state mallocs per re-solved source
	// (core.KernelSteadyAllocs): 0 for the pooled scalar kernels, which
	// bench_test.go asserts.
	AllocsPerSolve float64 `json:"allocs_per_solve"`
	// The work counters are a full solve's; subset rows leave them 0.
	Pops        int64 `json:"pops"`
	Enqueues    int64 `json:"enqueues"`
	EdgeScans   int64 `json:"edge_scans"`
	EdgeUpdates int64 `json:"edge_updates"`
	Folds       int64 `json:"folds"`
}

// medianDuration returns the median of ds (mean of the middle pair for
// even lengths). ds is sorted in place.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	mid := len(ds) / 2
	if len(ds)%2 == 1 {
		return ds[mid]
	}
	return (ds[mid-1] + ds[mid]) / 2
}

// kernelCmpGraph builds one comparison graph: weighted (the kernels
// differ only in how they order weighted relaxations), sized for a full
// APSP matrix.
func kernelCmpGraph(cfg Config, family string) (*graph.Graph, error) {
	n := int(2000 * cfg.Scale)
	if n < 256 {
		n = 256
	}
	w := gen.Weighting{Min: 1, Max: 100}
	switch family {
	case "power-law":
		return gen.PowerLawConfiguration(n, 2.5, 2, true, cfg.Seed, w)
	case "grid":
		side := int(math.Sqrt(float64(n)))
		return gen.Grid2D(side, side, true, cfg.Seed, w)
	default:
		return nil, fmt.Errorf("bench: unknown kernelcmp dataset %q", family)
	}
}

// kernelCmpRun is what one timed solve of the race leaves behind.
type kernelCmpRun struct {
	checksum uint64
	kernel   string // the kernel that ran
	stats    core.Counters
}

// BuildKernelCompareReport runs the kernel race and returns the
// structured report. A checksum divergence between kernels is an error,
// not a report row — the registry's contract is exactness.
func BuildKernelCompareReport(cfg Config) (*KernelCompareReport, error) {
	cfg = cfg.normalized()
	// The race runs at the largest requested thread count even when it
	// oversubscribes the host: the dynamic schedule keeps oversubscription
	// harmless for relative wall clock, and the regression gate needs the
	// kernels' parallel regime, not the CI runner's core count.
	threads := sortedCopy(cfg.Threads)
	workers := threads[len(threads)-1]
	prev := runtime.GOMAXPROCS(0)
	if workers > prev {
		runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(prev)
	}
	rep := &KernelCompareReport{Kernels: append(append([]string{}, cmpKernels...), core.KernelAuto)}
	for _, family := range []string{"power-law", "grid"} {
		g, err := kernelCmpGraph(cfg, family)
		if err != nil {
			return nil, err
		}
		allocs := make(map[string]float64, len(rep.Kernels))
		for _, kern := range rep.Kernels {
			if allocs[kern], err = core.KernelSteadyAllocs(g, kern, 10); err != nil {
				return nil, fmt.Errorf("bench: allocs probe for %s on %s: %w", kern, family, err)
			}
		}
		sources := make([]int32, kernelCmpSubset)
		for i, v := range rand.New(rand.NewSource(cfg.Seed)).Perm(g.N())[:kernelCmpSubset] {
			sources[i] = int32(v)
		}
		full := func(kern string) (kernelCmpRun, error) {
			res, err := core.Solve(g, core.ParAPSP, core.Options{Workers: workers, Kernel: kern})
			if err != nil {
				return kernelCmpRun{}, err
			}
			return kernelCmpRun{res.D.Checksum(), res.Kernel, res.Stats}, nil
		}
		subset := func(kern string) (kernelCmpRun, error) {
			sub, err := core.SolveSubset(g, sources, core.Options{Workers: workers, Kernel: kern})
			if err != nil {
				return kernelCmpRun{}, err
			}
			return kernelCmpRun{checksum: sub.Checksum(), kernel: sub.Kernel}, nil
		}
		for _, c := range []struct {
			name  string
			solve func(kern string) (kernelCmpRun, error)
		}{
			{family, full},
			{fmt.Sprintf("%s/subset%d", family, kernelCmpSubset), subset},
		} {
			ds, err := raceKernels(cfg, c.name, rep.Kernels, allocs, c.solve)
			if err != nil {
				return nil, err
			}
			ds.Vertices, ds.Arcs, ds.Workers = g.N(), g.NumArcs(), workers
			rep.Datasets = append(rep.Datasets, ds)
		}
	}
	return rep, nil
}

// raceKernels times solve for every kernel over cfg.Runs rounds and
// builds one dataset's rows. The "auto" row solves with the kernel unset.
//
// Rounds are interleaved, not per-kernel batches: the report's datum is
// the RATIO against the dijkstra row, and on a shared runner absolute
// throughput drifts over the minutes a batched sweep takes (the
// denominator would be measured on a fresh machine, every later row on a
// throttled one). Round-robin makes every kernel's rounds span the same
// wall-clock epochs, so drift cancels in the ratio instead of
// masquerading as a regression. Each row then reports its MEDIAN round: a
// scheduler spike or GC pause landing on one kernel's turn discards that
// round for that kernel instead of dragging its mean.
func raceKernels(cfg Config, name string, kernels []string, allocs map[string]float64, solve func(kern string) (kernelCmpRun, error)) (KernelCompareDataset, error) {
	ds := KernelCompareDataset{Dataset: name}
	rounds := make([][]time.Duration, len(kernels))
	runs := make([]kernelCmpRun, len(kernels))
	for run := 0; run < cfg.Runs; run++ {
		for ki, kern := range kernels {
			opt := kern
			if kern == core.KernelAuto {
				opt = ""
			}
			// Collect the previous solve's garbage outside the timing
			// window — each discarded matrix is large.
			runtime.GC()
			start := time.Now()
			r, err := solve(opt)
			if err != nil {
				return ds, fmt.Errorf("bench: %s on %s: %w", kern, name, err)
			}
			rounds[ki] = append(rounds[ki], time.Since(start))
			runs[ki] = r
		}
	}
	for ki, kern := range kernels {
		r := runs[ki]
		if ki == 0 {
			ds.Checksum = r.checksum
		} else if r.checksum != ds.Checksum {
			return ds, fmt.Errorf("bench: kernel %s diverged on %s: checksum %016x, want %016x",
				kern, name, r.checksum, ds.Checksum)
		}
		row := KernelCompareResult{
			Kernel:         kern,
			ElapsedNs:      medianDuration(rounds[ki]).Nanoseconds(),
			AllocsPerSolve: allocs[kern],
			Pops:           r.stats.Pops,
			Enqueues:       r.stats.Enqueues,
			EdgeScans:      r.stats.EdgeScans,
			EdgeUpdates:    r.stats.EdgeUpdates,
			Folds:          r.stats.Folds,
		}
		if kern == core.KernelAuto {
			row.Resolved = r.kernel
		}
		ds.Rows = append(ds.Rows, row)
	}
	if base := float64(ds.Rows[0].ElapsedNs); base > 0 {
		for i := range ds.Rows {
			ds.Rows[i].VsDijkstra = float64(ds.Rows[i].ElapsedNs) / base
		}
	}
	return ds, nil
}

func runKernelCompare(cfg Config, w io.Writer) error {
	rep, err := BuildKernelCompareReport(cfg)
	if err != nil {
		return err
	}
	for _, ds := range rep.Datasets {
		t := &Table{
			Title: fmt.Sprintf("%s (n=%d arcs=%d, %d workers, checksum %016x)",
				ds.Dataset, ds.Vertices, ds.Arcs, ds.Workers, ds.Checksum),
			Header: []string{"kernel", "elapsed", "vs dijkstra", "allocs/solve", "pops", "enqueues", "edge scans", "edge updates", "folds"},
		}
		for _, r := range ds.Rows {
			name := r.Kernel
			if r.Resolved != "" {
				name = fmt.Sprintf("%s→%s", r.Kernel, r.Resolved)
			}
			t.AddRow(name, FormatDuration(time.Duration(r.ElapsedNs)),
				fmt.Sprintf("%.2fx", r.VsDijkstra),
				fmt.Sprintf("%.1f", r.AllocsPerSolve),
				r.Pops, r.Enqueues, r.EdgeScans, r.EdgeUpdates, r.Folds)
		}
		t.Fprint(w)
	}
	return nil
}

// WriteKernelCompareReport runs the kernelcmp experiment and writes its
// structured report as indented JSON to path (the BENCH_PR6.json
// artifact).
func WriteKernelCompareReport(path string, cfg Config) error {
	rep, err := BuildKernelCompareReport(cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
