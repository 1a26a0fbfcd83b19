package core

import (
	"fmt"

	"parapsp/internal/graph"
	"parapsp/internal/obs"
	"parapsp/internal/order"
	"parapsp/internal/sched"
)

// The staged pipeline behind every solver entry point. An APSP solve is
//
//	Ordering → Schedule → SourceKernel → Fold
//
// stage one produces the source order, stage two maps ordered sources to
// workers (internal/sched), stage three runs one SSSP kernel per source
// (kernelreg.go), and stage four — completed-row reuse through the atomic
// flag vector — lives inside the kernels, which fold any published row
// they encounter. The paper's Algorithm values are canned presets over
// these stages; runPipeline is the one runner all of Solve, SolveSubset
// and SSSPPhase execute through.

// preset is one canned pipeline configuration: the ordering stage plus
// the execution markers of a paper Algorithm.
type preset struct {
	alg  Algorithm
	name string
	// ordering runs stage one; nil is the identity order.
	ordering func(g *graph.Graph, workers int, opts Options) ([]int32, error)
	// sequential pins the SSSP stage to one worker on the coordinator
	// goroutine (the paper's sequential baselines).
	sequential bool
	// adaptive marks Peng et al.'s adaptive variant, the one fused
	// pipeline: its ordering is interleaved with execution (the next
	// source depends on the reuse counts of the previous ones), so it
	// bypasses the staged runner by definition.
	adaptive bool
}

// presets registers the paper's Algorithm values as pipelines, in enum
// order. Algorithm.String and ParseAlgorithm are driven by this table, so
// a new preset cannot desync the two (the round-trip fuzz test pins it).
var presets = []preset{
	{alg: SeqBasic, name: "seq-basic", sequential: true},
	{alg: SeqOptimized, name: "seq-optimized", ordering: selectionOrdering, sequential: true},
	{alg: SeqAdaptive, name: "seq-adaptive", sequential: true, adaptive: true},
	{alg: ParAlg1, name: "ParAlg1"},
	{alg: ParAlg2, name: "ParAlg2", ordering: selectionOrdering},
	{alg: ParAPSP, name: "ParAPSP", ordering: multiListsOrdering},
}

// presetFor returns the pipeline preset of a, or nil when a is not a
// registered algorithm.
func presetFor(a Algorithm) *preset {
	for i := range presets {
		if presets[i].alg == a {
			return &presets[i]
		}
	}
	return nil
}

// Algorithms returns the registered algorithm presets in enum order.
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(presets))
	for i := range presets {
		out[i] = presets[i].alg
	}
	return out
}

// selectionOrdering is the sequential O(n^2) selection sort of
// Algorithms 3 and 4 (stage one of SeqOptimized/ParAlg2), run like every
// ordering stage through order.Run at the paper's defaults (r = 1.0).
func selectionOrdering(g *graph.Graph, workers int, opts Options) ([]int32, error) {
	return order.Run(order.Selection, g.Degrees(), order.Config{Workers: workers})
}

// multiListsOrdering is ParAPSP's stage one: the MultiLists parallel
// ordering by default, overridable through Options.Ordering.
func multiListsOrdering(g *graph.Graph, workers int, opts Options) ([]int32, error) {
	proc := opts.Ordering
	if proc == order.Identity {
		proc = order.MultiListsProc
	}
	return order.Run(proc, g.Degrees(), order.Config{Workers: workers})
}

// identitySources materializes the identity order; kernels always see an
// explicit source slice.
func identitySources(n int) []int32 {
	src := make([]int32, n)
	for i := range src {
		src[i] = int32(i)
	}
	return src
}

// groupSources is the lane kernels' order (laneKernel.Bind): sources
// regrouped into lane batches of neighbouring vertices, whose frontiers
// overlap, so one expansion serves many lanes (64 consecutive
// degree-ordered ids span whole stretches of a mesh instead). Each batch
// grows a BFS through ungrouped sources only from the first ungrouped
// source in order, and from the next one in order whenever that region
// runs out before the batch is full. The result is a permutation of
// sources; an order of one batch or less is returned as it is, with no
// allocation.
func groupSources(g *graph.Graph, sources []int32) []int32 {
	if len(sources) <= batchLaneWidth {
		return sources
	}
	ungrouped := make([]bool, g.N())
	for _, s := range sources {
		ungrouped[s] = true
	}
	// The batch being built is its own BFS queue: order[head:] are the
	// members not yet expanded.
	order := make([]int32, 0, len(sources))
	seed := 0
	for len(order) < len(sources) {
		head, end := len(order), min(len(order)+batchLaneWidth, len(sources))
		for len(order) < end {
			if head == len(order) {
				for !ungrouped[sources[seed]] {
					seed++
				}
				ungrouped[sources[seed]] = false
				order = append(order, sources[seed])
			}
			for _, u := range g.Neighbors(order[head]) {
				if ungrouped[u] && len(order) < end {
					ungrouped[u] = false
					order = append(order, u)
				}
			}
			head++
		}
	}
	return order
}

// runPipeline executes the SourceKernel stage of a solve: it binds the
// kernel to the runtime, maps Grain-sized source groups to workers under
// the schedule, and returns the aggregated counters. Scalar iterations of
// the sequential presets run on the coordinator goroutine (recording
// per-iteration spans, as the sequential baselines always did); everything
// else goes through the scheduler, whose per-worker claim loop records the
// same spans on the worker lanes.
func runPipeline(rt *Runtime, kern SourceKernel, scheme sched.Scheme) Counters {
	kr := kern.Bind(rt)
	k := len(rt.Sources)
	grain := kern.Grain()
	nb := (k + grain - 1) / grain
	if grain > 1 {
		// Lane-width groups always dispatch dynamically: a static map of
		// variable-cost batches would just re-create the load imbalance
		// the dynamic schedule exists to avoid.
		scheme = sched.DynamicCyclic
	}
	if rt.Seq && grain == 1 {
		rec := rt.Rec
		for i := 0; i < nb; i++ {
			var t0 int64
			if rec != nil {
				t0 = rec.Now()
			}
			kr.Run(0, i, i+1)
			if rec != nil {
				rec.Coordinator().Add(obs.Event{Phase: obs.PhaseIter, Start: t0, End: rec.Now(), Index: int64(i)})
			}
		}
		return kr.Finish()
	}
	sched.ParallelWorkersObs(nb, rt.Workers, scheme, rt.Rec, func(w, bi int) {
		lo := bi * grain
		hi := lo + grain
		if hi > k {
			hi = k
		}
		kr.Run(w, lo, hi)
	})
	return kr.Finish()
}

// String returns the paper's name for the algorithm, driven by the preset
// table.
func (a Algorithm) String() string {
	if p := presetFor(a); p != nil {
		return p.name
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Valid reports whether a names a registered algorithm preset.
func (a Algorithm) Valid() bool { return presetFor(a) != nil }

// ParseAlgorithm maps a name (as printed by String) to an Algorithm. It
// scans the same preset table String prints from, so the two cannot
// drift apart.
func ParseAlgorithm(name string) (Algorithm, error) {
	for i := range presets {
		if presets[i].name == name {
			return presets[i].alg, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", name)
}
