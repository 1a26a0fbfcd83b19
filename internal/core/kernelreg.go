package core

import (
	"fmt"
	"sort"

	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/obs"
)

// The SSSP-kernel registry. The paper's ParAPSP is a staged pipeline —
// Ordering → Schedule → SourceKernel → Fold — and the source kernel (the
// per-source shortest-path procedure that stage three runs for every
// ordered source) is its natural variation point: Δ-stepping (Meyer &
// Sanders; Kranjčević et al.) and the multi-source lane engines differ
// from the paper's modified Dijkstra only there. This file owns that
// seam: SourceKernel is the stage-three interface, the registry maps
// names to implementations, and resolveKernel is the one place the solver
// entry points (Solve, SolveSubset, SSSPPhase) pick a kernel — an
// explicit Options.Kernel, else the dispatch table below.
//
// The registry holds the kernels the dispatch table picks plus the
// paper's two reference points:
//
//	dijkstra  - the paper's FIFO label-correcting modified Dijkstra
//	            (Algorithm 1), including its PaperQueue variant
//	            (dijkstra.go); the differential reference
//	heap      - classic Dijkstra with lazy deletion, the queue-discipline
//	            ablation (heap.go)
//	deltastar - lazy-batched Δ*-stepping with a light/heavy edge split and
//	            auto-tuned Δ (ksteps.go, ksplit.go)
//	msbfs     - bit-parallel multi-source BFS, 64 sources per lane word,
//	            unweighted graphs only (batch.go)
//	sweep     - lane-major shared-sweep label-correcting SSSP, weighted
//	            graphs only (batch.go)
//
// Every kernel computes the exact same distances; the differential battery
// in kernel_test.go pins that across the registry at 1/2/8 workers. Every
// kernel's rows therefore also yield the same shortest paths: Path
// (paths.go) walks them back over the reverse graph, so no kernel tracks
// paths itself.

// Kernel name constants. The lane kernels reuse the engine names so
// Result.Engine / SubsetResult.Engine keep their published values.
const (
	KernelDijkstra  = "dijkstra"
	KernelHeap      = "heap"
	KernelDeltaStar = "deltastar"
	KernelMSBFS     = EngineMSBFS
	KernelSweep     = EngineSweep
)

// KernelAuto is a second spelling of the empty Options.Kernel: not a
// registry entry but a request for the dispatch table's pick
// (resolveKernel). Result.Kernel and the serve layer's X-Parapsp-Solver
// header always report the resolved name.
const KernelAuto = "auto"

// SourceKernel is one registered SSSP kernel: the pipeline stage that
// turns one ordered source (or one lane-width group of sources) into final
// distance rows.
type SourceKernel interface {
	// Name is the registry key, surfaced by apsp's -kernel flag, the serve
	// layer's X-Parapsp-Solver header, and Result.Kernel.
	Name() string
	// Supports reports whether the kernel can solve this graph/options
	// combination exactly; a non-nil error says why not (e.g. the lane
	// kernels are single-weighting and reject the scalar-only ablations).
	Supports(g *graph.Graph, opts Options) error
	// Grain is the number of consecutive sources one Run call consumes:
	// 1 for the scalar kernels, batchLaneWidth for the lane-parallel ones.
	// The pipeline runner schedules ceil(k/Grain) iterations.
	Grain() int
	// Bind prepares a per-solve instance: shared read-only precomputation
	// happens once here (Δ-stepping's light/heavy edge split; the lane
	// kernels' regrouping of more than batchLaneWidth sources into
	// batches of neighbouring vertices), and the returned run owns all
	// per-worker scratch.
	Bind(rt *Runtime) KernelRun
}

// KernelRun is a bound kernel executing one solve.
type KernelRun interface {
	// Run solves positions [lo, hi) of the run's source order on worker w
	// (hi-lo ≤ Grain()): rt.Sources itself, or the lane kernels'
	// regrouping of it. Calls with distinct w execute concurrently; the
	// kernel may keep per-worker scratch indexed by w.
	Run(w, lo, hi int)
	// Finish releases pooled scratch and returns the aggregated work
	// counters. It is called exactly once, after all Run calls completed.
	Finish() Counters
}

// Runtime is the per-solve context handed to Bind: everything a kernel
// needs that is shared across its workers.
type Runtime struct {
	G    *graph.Graph
	Opts Options
	// Workers is the effective parallelism of the SSSP stage (1 for the
	// sequential presets regardless of Options.Workers); per-worker
	// scratch must be sized for it.
	Workers int
	// Sources is the resolved source order, never nil.
	Sources []int32
	// Dest is where rows land: the full matrix or a subset row block.
	Dest rowDest
	// Flags is the shared row-completion vector of the fold stage.
	Flags *flags
	// Rec instruments the solve when non-nil.
	Rec *obs.Recorder
	// Seq marks the sequential presets: their scalar iterations run on
	// the coordinator goroutine and record into the coordinator lane.
	Seq bool
}

// rowDest is the destination a pipeline writes rows into: the full
// distance matrix of a Solve or the row block of a SolveSubset. It is the
// seam that lets every kernel serve both entry points through one code
// path; folds read either through the same fold views (flags.view).
type rowDest struct {
	m   *matrix.Matrix
	sub *SubsetResult
}

// row returns the distance row of source t, or nil when t has no row
// (a non-subset vertex). Rows of flagged vertices are final.
func (d rowDest) row(t int32) []matrix.Dist {
	if d.m != nil {
		return d.m.Row(int(t))
	}
	return d.sub.Row(t)
}

// begin resets source s's row to Inf with a zero diagonal (lines 2-4 of
// the paper's Algorithm 2) and returns it. Every kernel calls it as its
// search starts, on the worker that owns the row, so no destination needs
// a serial initialization pass; a search ends with flags.set, which
// publishes the row.
func (d rowDest) begin(s int32) []matrix.Dist {
	row := d.row(s)
	matrix.FillDist(row, matrix.Inf)
	row[s] = 0
	return row
}

// kernelRegistry maps kernel names to implementations. It is one
// literal, so two kernels claiming one name is a compile error, and it is
// never written, so concurrent lookups are safe.
var kernelRegistry = map[string]SourceKernel{
	KernelDijkstra:  dijkstraKernel{},
	KernelHeap:      heapKernel{},
	KernelDeltaStar: deltaStarKernel{},
	KernelMSBFS:     laneKernel{name: KernelMSBFS, weighted: false},
	KernelSweep:     laneKernel{name: KernelSweep, weighted: true},
}

// Kernels returns the sorted names of all registered kernels. The
// differential battery iterates this list, and a completeness test pins
// that the battery covers every entry.
func Kernels() []string {
	names := make([]string, 0, len(kernelRegistry))
	for name := range kernelRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LookupKernel resolves a kernel name.
func LookupKernel(name string) (SourceKernel, error) {
	k, ok := kernelRegistry[name]
	if !ok {
		return nil, fmt.Errorf("%w: unknown kernel %q (registered: %v)", ErrInvalid, name, Kernels())
	}
	return k, nil
}

// engineOf maps a kernel to the engine name published in Result.Engine /
// SubsetResult.Engine: the lane kernels are the batch engines, every
// scalar kernel reports EngineScalar (the values the serve counters and
// the batch battery pin).
func engineOf(k SourceKernel) string {
	switch k.Name() {
	case KernelMSBFS, KernelSweep:
		return k.Name()
	default:
		return EngineScalar
	}
}

// Dispatch thresholds of resolveKernel.
const (
	// batchMinVertices and batchMinSources bound the lane engines from
	// below: under either, a scalar search's frontier locality (and,
	// across sources, its completed-row reuse) beats the lane engines'
	// per-sweep scans of all n lane words.
	batchMinVertices = 1024
	batchMinSources  = 8
	// skewHeavyTail is the degree skew (max/mean out-degree) from which a
	// graph counts as heavy-tailed. Regular meshes sit at ≈1–2, the
	// benchmark power-law graph at 47.8; 8 splits them with a wide margin.
	skewHeavyTail = 8.0
)

// resolveKernel picks the SSSP kernel of a k-source solve. It is the only
// dispatch point — Solve, SolveSubset and SSSPPhase all select through it
// — and it keys only on the input (weightedness, degree skew, k against
// n) and the scalar-only options. "" and KernelAuto are the same request.
// The rows, first match wins (measured on the fixed benchmark's n=2000
// graphs, DESIGN.md §9):
//
//  1. An explicit kernel: that kernel, if its Supports accepts.
//  2. PaperQueue, DisableRowReuse, a sequential preset, or
//     k < batchMinSources: dijkstra. The options and presets are the
//     paper's FIFO mechanism by definition; below 8 sources neither lanes
//     nor buckets pay for themselves (k=1: 0.31 ms/row against sweep 0.35
//     and deltastar 0.52).
//  3. Unweighted, n ≥ batchMinVertices: msbfs. BFS levels are the exact
//     distances and one adjacency sweep advances 64 searches.
//  4. Weighted, heavy-tailed, n ≥ batchMinVertices, k < n/2: sweep. A
//     sparse subset finds few finished rows to fold, so the shared sweep
//     wins (k=16: 0.16 ms/row against dijkstra 0.35); near k = n/2 on
//     random subsets deltastar catches up.
//  5. Weighted, heavy-tailed: deltastar. With most rows in the solve, late
//     searches fold finished hub rows, and distance-ordered pops reach the
//     hubs sooner (full solve: 19.2 ms against dijkstra 28.5, sweep 106).
//  6. Otherwise, weighted meshes among them: dijkstra. Narrow frontiers
//     give buckets nothing to order and lanes nothing to share.
func resolveKernel(alg Algorithm, g *graph.Graph, opts Options, k int) (SourceKernel, error) {
	if opts.Kernel == KernelAuto {
		opts.Kernel = ""
	}
	if opts.Kernel != "" {
		if alg == SeqAdaptive && opts.Kernel != KernelDijkstra {
			return nil, fmt.Errorf("%w: SeqAdaptive interleaves ordering with execution and cannot swap kernels", ErrInvalid)
		}
		kern, err := LookupKernel(opts.Kernel)
		if err != nil {
			return nil, err
		}
		if err := kern.Supports(g, opts); err != nil {
			return nil, err
		}
		return kern, nil
	}
	n := g.N()
	name := KernelDijkstra
	switch {
	case opts.PaperQueue || opts.DisableRowReuse || alg < ParAlg1 || k < batchMinSources:
		// row 2 keeps dijkstra
	case !g.Weighted():
		if n >= batchMinVertices {
			name = KernelMSBFS
		}
	case degreeSkew(g) >= skewHeavyTail:
		name = KernelDeltaStar
		if n >= batchMinVertices && 2*k < n {
			name = KernelSweep
		}
	}
	return kernelRegistry[name], nil
}

// degreeSkew is max/mean out-degree, 0 on an arcless graph. It costs one
// O(n) degree scan, so it is computed per solve, only by the rows that
// read it, and never cached: a cache keyed by graph would pin every graph
// a mutating server has ever solved against.
func degreeSkew(g *graph.Graph) float64 {
	m := g.NumArcs()
	if m == 0 {
		return 0
	}
	_, max := g.MinMaxDegree()
	return float64(max) * float64(g.N()) / float64(m)
}
