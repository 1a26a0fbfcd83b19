// Package core implements the paper's APSP algorithms: Peng et al.'s
// modified Dijkstra procedure (Algorithm 1) and basic/optimized/adaptive
// sequential solvers (Algorithms 2-3), and the paper's parallel solvers —
// ParAlg1, ParAlg2, and the contributed ParAPSP (Algorithms 4 and 8) —
// with pluggable ordering procedures and loop schedules so every
// configuration measured in the evaluation section can be reproduced.
package core

import (
	"errors"
	"fmt"
	"time"

	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/obs"
	"parapsp/internal/order"
	"parapsp/internal/sched"
)

// Algorithm identifies an APSP solver configuration from the paper.
type Algorithm int

const (
	// SeqBasic is Algorithm 2: the modified Dijkstra procedure applied to
	// sources 0..n-1 in index order, single-threaded.
	// The zero Algorithm value is deliberately invalid so that
	// higher-level option structs can treat it as "default".
	SeqBasic Algorithm = iota + 1
	// SeqOptimized is Algorithm 3: sources in descending degree order
	// found by the O(n^2) selection sort, single-threaded.
	SeqOptimized
	// SeqAdaptive is Peng et al.'s adaptive variant: the source order is
	// re-prioritized between iterations by how often each completed row
	// was actually reused. The paper chose not to parallelize it; it is
	// provided for the sequential comparison it mentions.
	SeqAdaptive
	// ParAlg1 is the parallel basic algorithm (Section 3.1): independent
	// modified-Dijkstra runs over sources in index order.
	ParAlg1
	// ParAlg2 is Algorithm 4: the sequential selection-sort ordering
	// followed by a schedule(dynamic,1) parallel loop over the ordered
	// sources.
	ParAlg2
	// ParAPSP is Algorithm 8, the paper's contribution: the MultiLists
	// parallel ordering followed by the same dynamic-cyclic source loop.
	ParAPSP
)

// Algorithm.String, ParseAlgorithm and Valid live in pipeline.go, driven
// by the preset table that defines what each enum value executes.

// Options tunes a Solve run. The zero value reproduces the paper's
// configuration of the chosen algorithm.
type Options struct {
	// Workers is the thread count of the parallel algorithms
	// (ignored, treated as 1, by the sequential ones).
	Workers int
	// schedule is the loop schedule of the parallel source loop, set only
	// through WithSchedule; scheduleSet distinguishes an explicit Block
	// (0) from the default, the paper's DynamicCyclic (Figure 1).
	schedule    sched.Scheme
	scheduleSet bool
	// Ordering overrides the ordering procedure of ParAPSP, which the
	// Section 4 experiments vary between ParBuckets, ParMax and
	// MultiLists. Zero value (Identity) means "the algorithm's own
	// default". It is ignored by algorithms whose ordering is fixed by
	// definition (ParAlg1/ParAlg2 and the sequential solvers).
	Ordering order.Procedure
	// Kernel pins the SSSP source kernel by registry name ("dijkstra",
	// "heap", "deltastar", "msbfs", "sweep" — see Kernels()); "heap" is
	// the queue-discipline ablation, a binary min-heap in place of the
	// paper's FIFO queue. Empty, or its synonym "auto" (KernelAuto), lets
	// the dispatch table pick from the graph's weighting and degree skew,
	// the source count and the options (resolveKernel, kernelreg.go);
	// Result.Kernel reports the kernel that actually ran. Solve fails with
	// ErrInvalid when a named kernel cannot solve the graph/options
	// combination exactly (for example "msbfs" on a weighted graph). The
	// paper experiments name "dijkstra", the paper's modified Dijkstra.
	Kernel string
	// PaperQueue makes the modified Dijkstra enqueue duplicates exactly
	// as written in Algorithm 1 line 16, instead of the default
	// SPFA-style membership test. Semantics are identical; this exists
	// for the queue-dedup ablation.
	PaperQueue bool
	// DisableRowReuse turns off the dynamic-programming reuse of
	// completed rows (the flag mechanism), degrading every solver to a
	// plain repeated label-correcting search. Ablation only: it isolates
	// the benefit the paper credits for its hyper-linear speedup.
	DisableRowReuse bool
	// MaxMemBytes, when non-zero, makes Solve fail instead of allocating
	// a distance matrix larger than this bound. The paper's experiments
	// are memory-gated (sx-superuser needs 160 GB); this is the guard.
	MaxMemBytes uint64
	// Obs, when non-nil, instruments the solve: the ordering and SSSP
	// phases are recorded as coordinator spans and labeled for pprof,
	// the scheduler records per-worker iteration/dispatch/idle events,
	// the searches record fold-drain spans, and the final counters are
	// published into the recorder's metrics registry ("core.*"). The
	// recorder must have been created for at least Workers lanes
	// (obs.New(workers)); Solve fails with ErrInvalid otherwise. A nil
	// recorder leaves the hot path untouched except for one predictable
	// branch per potential event.
	Obs *obs.Recorder
}

// WithSchedule returns o with the loop schedule set explicitly.
func (o Options) WithSchedule(s sched.Scheme) Options {
	o.schedule = s
	o.scheduleSet = true
	return o
}

// Result is the outcome of a Solve run, with the phase split the paper's
// Section 4 and 5 experiments report (ordering time vs Dijkstra-part time).
type Result struct {
	// D is the distance matrix: D.At(u,v) is the shortest-path distance
	// from u to v, matrix.Inf if v is unreachable from u. Path walks a
	// shortest path back from any of its rows.
	D *matrix.Matrix
	// Order is the ordering stage's source order (nil for
	// SeqBasic/ParAlg1, whose order is the identity). The lane kernels
	// (msbfs, sweep) regroup it into batches of neighbouring sources
	// before they run.
	Order []int32
	// OrderingTime is the elapsed wall time of the ordering procedure.
	OrderingTime time.Duration
	// SSSPTime is the elapsed wall time of the iterated modified
	// Dijkstra loop (the paper's "Dijkstra algorithm part").
	SSSPTime time.Duration
	// Stats aggregates the work performed (pops, folds, edge scans);
	// collected by the dijkstra, deltastar and lane kernels, zero for the
	// heap kernel and SeqAdaptive.
	Stats Counters
	// Algorithm and Workers echo the configuration for reporting.
	Algorithm Algorithm
	Workers   int
	// Engine names the solver that ran the SSSP phase: EngineScalar for
	// the scalar kernels, EngineMSBFS / EngineSweep for the multi-source
	// lane kernels.
	Engine string
	// Kernel is the registry name of the SSSP kernel that ran (see
	// Options.Kernel).
	Kernel string
}

// Total returns the overall elapsed time (ordering + SSSP phases).
func (r *Result) Total() time.Duration { return r.OrderingTime + r.SSSPTime }

// Errors returned by Solve.
var (
	ErrMemory  = errors.New("core: distance matrix exceeds memory bound")
	ErrInvalid = errors.New("core: invalid configuration")
)

// Solve runs the selected APSP algorithm on g and returns the distance
// matrix plus phase timings. All algorithms produce the exact APSP
// solution; they differ only in running time.
//
// A Solve is the full staged pipeline (see pipeline.go): the algorithm's
// preset supplies the ordering stage and the sequential/parallel execution
// mode, resolveKernel picks the SSSP source kernel, and runPipeline maps
// ordered sources to workers under the loop schedule.
func Solve(g *graph.Graph, alg Algorithm, opts Options) (*Result, error) {
	p := presetFor(alg)
	if p == nil {
		return nil, fmt.Errorf("%w: algorithm %d", ErrInvalid, int(alg))
	}
	if opts.Ordering != order.Identity && !opts.Ordering.Valid() {
		return nil, fmt.Errorf("%w: ordering %d", ErrInvalid, int(opts.Ordering))
	}
	n := g.N()
	if need := matrix.EstimateMemBytes(n); opts.MaxMemBytes != 0 && need > opts.MaxMemBytes {
		return nil, fmt.Errorf("%w: need %d bytes for n=%d, bound %d", ErrMemory, need, n, opts.MaxMemBytes)
	}
	workers := sched.Workers(opts.Workers)
	if opts.Obs != nil && opts.Obs.Workers() < workers {
		return nil, fmt.Errorf("%w: obs recorder has %d worker lanes, need %d",
			ErrInvalid, opts.Obs.Workers(), workers)
	}
	kern, err := resolveKernel(alg, g, opts, n)
	if err != nil {
		return nil, err
	}
	res := &Result{Algorithm: alg, Workers: workers}
	effWorkers := workers
	if p.sequential {
		effWorkers = 1
	}

	// Stage 1: source ordering.
	start := time.Now()
	var src []int32
	runPhase(opts.Obs, alg, obs.PhaseOrdering, func() {
		if p.ordering != nil {
			src, err = p.ordering(g, workers, opts)
		}
	})
	if err != nil {
		return nil, err
	}
	res.OrderingTime = time.Since(start)
	res.Order = src

	// Stages 2-4: schedule the ordered sources onto the kernel; folds
	// (completed-row reuse) happen inside the kernels via the flag vector.
	D := matrix.NewZero(n) // each search begins its own row
	start = time.Now()
	res.Engine = engineOf(kern)
	res.Kernel = kern.Name()
	runPhase(opts.Obs, alg, obs.PhaseSSSP, func() {
		if p.adaptive {
			// The adaptive variant fuses ordering into execution (the next
			// source depends on previous reuse counts); it bypasses the
			// staged runner by definition.
			res.Order = runAdaptive(g, D, opts)
			return
		}
		sources := src
		if sources == nil {
			sources = identitySources(n)
		}
		rt := &Runtime{
			G: g, Opts: opts, Workers: effWorkers, Sources: sources,
			Dest: rowDest{m: D}, Flags: newFlags(n),
			Rec: opts.Obs, Seq: p.sequential,
		}
		scheme := sched.DynamicCyclic
		if opts.scheduleSet {
			scheme = opts.schedule
		}
		res.Stats = runPipeline(rt, kern, scheme)
	})
	res.SSSPTime = time.Since(start)
	res.D = D
	if opts.Obs != nil {
		res.PublishMetrics(opts.Obs.Metrics())
	}
	return res, nil
}

// runPhase executes one solver phase, and — when the solve is
// instrumented — wraps it in pprof labels (algorithm + phase, so CPU
// profiles split cleanly) and records a coordinator-lane span.
func runPhase(rec *obs.Recorder, alg Algorithm, phase obs.Phase, fn func()) {
	if rec == nil {
		fn()
		return
	}
	t0 := rec.Now()
	obs.Do(fn, "parapsp-alg", alg.String(), "parapsp-phase", phase.String())
	rec.Coordinator().Add(obs.Event{Phase: phase, Start: t0, End: rec.Now()})
}

// OrderingOnly runs just the ordering procedure of a configuration and
// returns the order and its elapsed time. The Section 4 experiments
// (Table 1, Figures 4 and 6) time this phase in isolation.
func OrderingOnly(g *graph.Graph, proc order.Procedure, cfg order.Config) ([]int32, time.Duration, error) {
	degrees := g.Degrees()
	start := time.Now()
	src, err := order.Run(proc, degrees, cfg)
	return src, time.Since(start), err
}

// SSSPPhase runs only the iterated-Dijkstra phase over a precomputed source
// order and returns the distance matrix and elapsed time. Figure 5 times
// this phase under orders produced by different procedures; the kernel is
// resolved as for a ParAPSP solve of every vertex.
func SSSPPhase(g *graph.Graph, src []int32, workers int, scheme sched.Scheme, opts Options) (*matrix.Matrix, time.Duration, error) {
	n := g.N()
	if src != nil && !order.IsPermutation(src, n) {
		return nil, 0, fmt.Errorf("%w: source order is not a permutation of [0,%d)", ErrInvalid, n)
	}
	w := sched.Workers(workers)
	if opts.Obs != nil && opts.Obs.Workers() < w {
		return nil, 0, fmt.Errorf("%w: obs recorder has %d worker lanes, need %d",
			ErrInvalid, opts.Obs.Workers(), w)
	}
	kern, err := resolveKernel(ParAPSP, g, opts, n)
	if err != nil {
		return nil, 0, err
	}
	D := matrix.NewZero(n)
	start := time.Now()
	sources := src
	if sources == nil {
		sources = identitySources(n)
	}
	rt := &Runtime{
		G: g, Opts: opts, Workers: w, Sources: sources,
		Dest: rowDest{m: D}, Flags: newFlags(n),
		Rec: opts.Obs, Seq: w == 1,
	}
	runPipeline(rt, kern, scheme)
	return D, time.Since(start), nil
}
