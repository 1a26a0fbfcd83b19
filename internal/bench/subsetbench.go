package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"parapsp/internal/core"
	"parapsp/internal/gen"
	"parapsp/internal/graph"
)

// The batch experiment measures the multi-source batch engine (MS-BFS for
// unweighted graphs, the shared-sweep relaxation for weighted ones)
// against B independent scalar subset solves of the same sources, at
// B = 1, 8 and 64 on a power-law graph and a 2D grid. Checksums are
// asserted equal — a mismatch fails the experiment rather than footnoting
// the table — so every speedup row is also an exactness proof.

func init() {
	register(Experiment{
		ID:     "batch",
		Paper:  "ours (multi-source)",
		Title:  "Multi-source batch engine vs per-source scalar solves",
		Expect: "unweighted B=64 MS-BFS >= 4x over 64 scalar solves on power-law; the high-diameter grid favors scalar (every level sweep scans all lane words); checksums identical",
		Run:    runBatch,
	})
}

// BatchReport is the machine-readable result of the batch experiment,
// written to BENCH_PR4.json by cmd/apspbench -batchjson.
type BatchReport struct {
	Workers int               `json:"workers"`
	Runs    int               `json:"runs"`
	Cases   []BatchCaseResult `json:"cases"`
}

// BatchCaseResult compares one (dataset, weighting, batch-size) cell:
// the same B sources solved by dijkstra and by the lane kernel.
type BatchCaseResult struct {
	Dataset        string  `json:"dataset"`
	Weighted       bool    `json:"weighted"`
	Vertices       int     `json:"vertices"`
	Arcs           int64   `json:"arcs"`
	Sources        int     `json:"sources"`
	Engine         string  `json:"engine"`
	ScalarNs       int64   `json:"scalar_ns"`
	BatchNs        int64   `json:"batch_ns"`
	Speedup        float64 `json:"speedup"`
	Checksum       uint64  `json:"checksum"`
	ChecksumsMatch bool    `json:"checksums_match"`
}

// batchBenchSizes are the batch widths measured: a single source (the
// batch engine's overhead floor), a partial lane, and a full 64-lane word.
var batchBenchSizes = []int{1, 8, 64}

// batchBenchGraph builds one benchmark graph. The default scale targets
// n = 12000 (>= the 10k the acceptance bar asks for); tiny harness
// self-test scales floor at 256 so every code path still runs.
func batchBenchGraph(cfg Config, family string, weighted bool) (*graph.Graph, error) {
	n := int(12000 * cfg.Scale)
	if n < 256 {
		n = 256
	}
	var w gen.Weighting
	if weighted {
		w = gen.Weighting{Min: 1, Max: 100}
	}
	switch family {
	case "power-law":
		return gen.PowerLawConfiguration(n, 2.5, 2, true, cfg.Seed, w)
	case "grid":
		side := int(math.Sqrt(float64(n)))
		return gen.Grid2D(side, side, true, cfg.Seed, w)
	default:
		return nil, fmt.Errorf("bench: unknown batch dataset %q", family)
	}
}

// batchBenchSources spreads b distinct sources evenly across the vertex
// range so a batch mixes hubs and periphery instead of b neighbors.
func batchBenchSources(n, b int) []int32 {
	if b > n {
		b = n
	}
	out := make([]int32, b)
	for i := range out {
		out[i] = int32(i * n / b)
	}
	return out
}

// BuildBatchReport runs the scalar-vs-batched subset solves and returns
// the structured report. A checksum divergence between the two engines is
// an error, not a report row.
func BuildBatchReport(cfg Config) (*BatchReport, error) {
	cfg = cfg.normalized()
	// Widest configured worker count the machine can truly parallelize,
	// applied to both sides of every comparison.
	threads := sortedCopy(cfg.Threads)
	workers := threads[0]
	for _, p := range threads {
		if p <= runtime.NumCPU() && p > workers {
			workers = p
		}
	}
	rep := &BatchReport{Workers: workers, Runs: cfg.Runs}
	for _, c := range []struct {
		family   string
		weighted bool
	}{
		{"power-law", false},
		{"power-law", true},
		{"grid", false},
		{"grid", true},
	} {
		g, err := batchBenchGraph(cfg, c.family, c.weighted)
		if err != nil {
			return nil, err
		}
		for _, b := range batchBenchSizes {
			sources := batchBenchSources(g.N(), b)
			var scalarSub, batchSub *core.SubsetResult
			var solveErr error
			run := func(kern string, out **core.SubsetResult) time.Duration {
				return Measure(cfg.Runs, workers, func() {
					sub, err2 := core.SolveSubset(g, sources, core.Options{Workers: workers, Kernel: kern})
					if err2 != nil {
						solveErr = err2
						return
					}
					*out = sub
				})
			}
			scalarNs := run(core.KernelDijkstra, &scalarSub)
			batchNs := run(laneKernel(g), &batchSub)
			if solveErr != nil {
				return nil, solveErr
			}
			res := BatchCaseResult{
				Dataset:        c.family,
				Weighted:       c.weighted,
				Vertices:       g.N(),
				Arcs:           g.NumArcs(),
				Sources:        len(sources),
				Engine:         batchSub.Engine,
				ScalarNs:       scalarNs.Nanoseconds(),
				BatchNs:        batchNs.Nanoseconds(),
				Checksum:       batchSub.Checksum(),
				ChecksumsMatch: scalarSub.Checksum() == batchSub.Checksum(),
			}
			if res.BatchNs > 0 {
				res.Speedup = float64(res.ScalarNs) / float64(res.BatchNs)
			}
			if !res.ChecksumsMatch {
				return nil, fmt.Errorf("bench: batch engine %s diverged from scalar on %s (weighted=%v, B=%d): %016x != %016x",
					res.Engine, c.family, c.weighted, b, res.Checksum, scalarSub.Checksum())
			}
			rep.Cases = append(rep.Cases, res)
		}
	}
	return rep, nil
}

// laneKernel names the multi-source lane kernel that solves g.
func laneKernel(g *graph.Graph) string {
	if g.Weighted() {
		return core.KernelSweep
	}
	return core.KernelMSBFS
}

func runBatch(cfg Config, w io.Writer) error {
	rep, err := BuildBatchReport(cfg)
	if err != nil {
		return err
	}
	t := &Table{
		Title:  fmt.Sprintf("multi-source batch engine vs scalar subset solves (%d workers)", rep.Workers),
		Header: []string{"dataset", "weighted", "n", "B", "engine", "scalar", "batched", "speedup", "checksum"},
	}
	for _, r := range rep.Cases {
		t.AddRow(r.Dataset, r.Weighted, r.Vertices, r.Sources, r.Engine,
			FormatDuration(time.Duration(r.ScalarNs)),
			FormatDuration(time.Duration(r.BatchNs)),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%016x", r.Checksum))
	}
	t.Fprint(w)
	return nil
}

// WriteBatchReport runs the batch experiment and writes its structured
// report as indented JSON to path (the BENCH_PR4.json artifact).
func WriteBatchReport(path string, cfg Config) error {
	rep, err := BuildBatchReport(cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
