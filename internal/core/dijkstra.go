package core

import (
	"sync/atomic"

	"parapsp/internal/graph"
	"parapsp/internal/kernel"
	"parapsp/internal/matrix"
	"parapsp/internal/obs"
)

// flags is the shared completion vector of Algorithm 1 ("vector flag"),
// with the rows' fold views beside it. flags.done(t) == true means the
// full SSSP row of t is final and will never be written again, so any
// other search may fold it in.
//
// Publication protocol: the owner of source t writes its whole row, then
// calls set(t) — an atomic store. A reader that observes done(t) == true
// via the atomic load is therefore guaranteed (Go memory model: the store
// is a release, the load an acquire) to see every row entry. This is what
// makes the parallel algorithms produce the exact sequential solution
// without locking the matrix.
//
// Fold views are built by readers, not by the owner: the first search
// that folds row t scans the final row and publishes its view by
// compare-and-swap (view). Rows no search folds are never scanned — on
// the benchmark's power-law graph about half of them, and every row of a
// lane solve.
type flags struct {
	v     []atomic.Uint32
	views []atomic.Pointer[foldView]
}

func newFlags(n int) *flags {
	return &flags{v: make([]atomic.Uint32, n), views: make([]atomic.Pointer[foldView], n)}
}

func (f *flags) done(t int32) bool { return f.v[t].Load() != 0 }
func (f *flags) set(t int32)       { f.v[t].Store(1) }

// foldView describes the finite entries of a final row: every non-Inf
// entry lies in the span [lo, hi), and idx lists their positions when
// they populate at most 1/indexedFoldDivisor of the span, i.e. when a
// gather over the list is clearly cheaper than a contiguous sweep of the
// span. A span of at most one entry holds no more than the row's own
// diagonal (a published row t has rt[t] == 0), so its fold is skipped.
type foldView struct {
	lo, hi int
	idx    []int32
}

const indexedFoldDivisor = 8

// view returns the fold view of the done row t, whose contents are rt,
// building it on first use. The finite count that decides the index list
// stops at span/indexedFoldDivisor+1, so a dense row is scanned for an
// eighth of its span, not all of it. Two searches folding t for the first
// time at once may both build one; the compare-and-swap keeps the first,
// and both describe the same final row.
func (f *flags) view(t int32, rt []matrix.Dist) *foldView {
	if v := f.views[t].Load(); v != nil {
		return v
	}
	lo, hi, finite := matrix.ScanFinite(rt, indexedFoldDivisor)
	v := &foldView{lo: lo, hi: hi}
	if hi-lo > 1 && finite <= (hi-lo)/indexedFoldDivisor {
		v.idx = make([]int32, 0, finite)
		for j := lo; j < hi; j++ {
			if rt[j] != matrix.Inf {
				v.idx = append(v.idx, int32(j))
			}
		}
	}
	if f.views[t].CompareAndSwap(nil, v) {
		return v
	}
	return f.views[t].Load()
}

// queueCompactMin is the minimum consumed-prefix length before the FIFO
// queue is compacted in place. Compaction reclaims the dead prefix so the
// backing array grows with the high-water mark of *pending* vertices, not
// with total enqueues; the threshold keeps the copy amortized (a prefix
// is only reclaimed once it is at least as long as the live suffix, and
// never for trivially small queues).
const queueCompactMin = 1024

// scratch is the per-worker reusable state of one modified-Dijkstra run:
// the FIFO vertex queue, the pending-fold queue, the queue-membership
// bitmap (shared by both queues in dedup mode), and the improved-vertex
// buffer the relaxation kernels append into. Reusing it across the
// worker's sources removes per-source allocation, which would otherwise
// dominate small-graph runs.
type scratch struct {
	queue    []int32
	folds    []int32
	improved []int32
	inQueue  []bool
	stats    Counters
	// obsRec/obsLane are non-nil only for instrumented solves; the lane
	// is this worker's single-writer event buffer. The disabled hot path
	// pays one nil-check per fold drain, not per pop.
	obsRec  *obs.Recorder
	obsLane *obs.Lane
}

func newScratch(n int) *scratch {
	return &scratch{queue: make([]int32, 0, 64), inQueue: make([]bool, n)}
}

// attachObs points the scratch at the solve's recorder and this worker's
// lane, enabling fold-drain span recording.
func (sc *scratch) attachObs(r *obs.Recorder, l *obs.Lane) { sc.obsRec, sc.obsLane = r, l }

// foldRow folds the completed row t (published in dest) into row at offset
// dt — D[s,v] <- min(D[s,v], dt + D[t,v]) — dispatching on t's fold view:
// a row whose finite span is the diagonal alone (hi-lo <= 1) is skipped
// outright (dt + 0 == dt == row[t] already), a sparse row is gathered
// through its finite-index list, and any other row is swept over its
// finite span.
func foldRow(dest rowDest, f *flags, row []matrix.Dist, t int32, dt matrix.Dist, st *Counters) {
	rt := dest.row(t)
	v := f.view(t, rt)
	switch {
	case v.hi-v.lo <= 1:
		st.FoldsSkipped++
		st.FoldEntriesSkipped += int64(len(rt))
	case v.idx != nil:
		st.FoldEntriesSkipped += int64(len(rt) - len(v.idx))
		kernel.FoldRowIndexed(row, rt, dt, v.idx)
	default:
		st.FoldEntriesSkipped += int64(len(rt) - (v.hi - v.lo))
		kernel.FoldRow(row[v.lo:v.hi], rt[v.lo:v.hi], dt)
	}
}

// modifiedDijkstra is Algorithm 1: a label-correcting single-source search
// from s into row D[s], reusing any completed row it encounters.
//
// The procedure maintains a FIFO queue of vertices whose tentative distance
// improved. When a vertex t already has a final row (flag[t] set), the
// whole row is folded in — D[s,v] <- min(D[s,v], D[s,t]+D[t,v]) — and t's
// edges are NOT expanded: row t already dominates every continuation
// through t, including continuations of the vertices the fold just
// improved, so fold improvements need no re-enqueue. Otherwise t's
// outgoing edges are relaxed and improved endpoints are enqueued
// (lines 13-18). The search terminates because weights are positive and
// each enqueue requires a strict distance decrease.
//
// Unlike the pseudocode, completed rows are not folded at pop time:
// improved vertices whose row is already final are routed to a separate
// pending-fold queue, and all pending folds are drained back-to-back
// before edge relaxation resumes. The destination row stays cache-hot
// across the consecutive sweeps, and the relaxation loop never alternates
// with row-sized streaming reads. The label-correcting fixpoint is
// order-independent, so deferring folds changes no distances: a deferred
// fold still runs with t's latest tentative distance, and any vertex
// improved after being queued is simply processed with its newer value.
//
// A vertex already in either queue is not enqueued twice — the classic
// SPFA refinement, which changes no distances because a queued vertex is
// processed with its latest tentative distance anyway. With
// opts.PaperQueue the duplicate enqueues and fold-at-pop of the
// pseudocode are kept verbatim (see paperDijkstra).
func modifiedDijkstra(g *graph.Graph, s int32, dest rowDest, f *flags, sc *scratch, opts Options) {
	if opts.PaperQueue {
		paperDijkstra(g, s, dest, f, sc, opts)
		return
	}
	row := dest.begin(s) // line 2
	reuse := !opts.DisableRowReuse

	q := sc.queue[:0]
	q = append(q, s)
	sc.inQueue[s] = true
	folds := sc.folds[:0]
	head := 0
	st := &sc.stats
	for head < len(q) || len(folds) > 0 {
		// Drain every pending completed row back-to-back into the (hot)
		// destination row. Fold improvements never enqueue (see above),
		// so the batch cannot grow while it drains.
		if len(folds) > 0 {
			st.FoldBatches++
			var t0 int64
			if sc.obsLane != nil {
				t0 = sc.obsRec.Now()
			}
			batch := len(folds)
			for _, t := range folds {
				sc.inQueue[t] = false
				st.Pops++
				st.Folds++
				foldRow(dest, f, row, t, row[t], st)
			}
			folds = folds[:0]
			if sc.obsLane != nil {
				sc.obsLane.Add(obs.Event{Phase: obs.PhaseFoldDrain,
					Start: t0, End: sc.obsRec.Now(), Index: int64(s), Arg: int64(batch)})
			}
			continue
		}

		t := q[head]
		head++
		// Reclaim consumed prefix occasionally so the backing array does
		// not grow with total enqueues.
		if head > queueCompactMin && head*2 >= len(q) {
			q = q[:copy(q, q[head:])]
			head = 0
		}
		if reuse && t != s && f.done(t) {
			// t's row became final after t was queued: reroute it to the
			// fold queue (inQueue stays set until the drain).
			folds = append(folds, t)
			continue
		}
		sc.inQueue[t] = false
		st.Pops++
		dt := row[t]

		// Lines 13-18: relax t's outgoing edges.
		adj, w := g.NeighborsW(t)
		st.EdgeScans += int64(len(adj))
		imp := sc.improved[:0]
		if w == nil {
			// Unweighted fast path: every edge weighs 1.
			imp = kernel.RelaxUnweighted(row, adj, matrix.AddSat(dt, 1), imp)
		} else {
			imp = kernel.RelaxWeighted(row, adj, w, dt, imp)
		}
		st.EdgeUpdates += int64(len(imp))
		for _, v := range imp {
			if sc.inQueue[v] {
				continue
			}
			sc.inQueue[v] = true
			st.Enqueues++
			if reuse && f.done(v) {
				folds = append(folds, v)
			} else {
				q = append(q, v)
			}
		}
		sc.improved = imp[:0]
	}
	sc.queue = q[:0]
	sc.folds = folds[:0]
	f.set(s) // line 21: publish the completed row
}

// paperDijkstra is the pseudocode-verbatim queue discipline, kept for the
// ablation-queue experiment: no membership dedup (a vertex is enqueued
// once per improvement) and completed rows are folded at pop time rather
// than batched. The inner loops still run through the kernels — they are
// observationally identical to the scalar element loops, so the ablation
// isolates the queue discipline alone.
func paperDijkstra(g *graph.Graph, s int32, dest rowDest, f *flags, sc *scratch, opts Options) {
	row := dest.begin(s)
	reuse := !opts.DisableRowReuse

	q := sc.queue[:0]
	q = append(q, s)
	head := 0
	st := &sc.stats
	for head < len(q) {
		t := q[head]
		head++
		st.Pops++
		if head > queueCompactMin && head*2 >= len(q) {
			q = q[:copy(q, q[head:])]
			head = 0
		}
		dt := row[t]

		if reuse && t != s && f.done(t) {
			// Lines 6-11: fold in the completed row of t.
			st.Folds++
			foldRow(dest, f, row, t, dt, st)
			continue
		}

		adj, w := g.NeighborsW(t)
		st.EdgeScans += int64(len(adj))
		imp := sc.improved[:0]
		if w == nil {
			imp = kernel.RelaxUnweighted(row, adj, matrix.AddSat(dt, 1), imp)
		} else {
			imp = kernel.RelaxWeighted(row, adj, w, dt, imp)
		}
		st.EdgeUpdates += int64(len(imp))
		for _, v := range imp {
			q = append(q, v)
			st.Enqueues++
		}
		sc.improved = imp[:0]
	}
	sc.queue = q[:0]
	f.set(s)
}

// runAdaptive implements Peng et al.'s adaptive optimization as described
// in Section 2.2 of the paper: the source order is adapted between
// iterations, giving priority to vertices that were "actually in the
// middle of shortest paths of two other vertices".
//
// Peng et al.'s exact bookkeeping is not reproduced in the ICPP paper, so
// this implementation uses the natural reading (documented in DESIGN.md):
// it counts, per vertex, how many times its completed row was folded into
// another search (a direct measure of being a useful intermediate), and at
// each iteration selects the unprocessed vertex with the highest
// (reuseCount, degree) pair. The selection scan is O(n) per iteration —
// the loop-carried dependence that made the paper decline to parallelize
// this variant.
func runAdaptive(g *graph.Graph, D *matrix.Matrix, opts Options) []int32 {
	n := g.N()
	dest := rowDest{m: D}
	f := newFlags(n)
	sc := newScratch(n)
	degrees := g.Degrees()
	reused := make([]int64, n)
	processed := make([]bool, n)
	orderOut := make([]int32, 0, n)

	for iter := 0; iter < n; iter++ {
		best := int32(-1)
		for v := 0; v < n; v++ {
			if processed[v] {
				continue
			}
			if best < 0 {
				best = int32(v)
				continue
			}
			if reused[v] > reused[best] ||
				(reused[v] == reused[best] && degrees[v] > degrees[best]) {
				best = int32(v)
			}
		}
		processed[best] = true
		orderOut = append(orderOut, best)
		adaptiveDijkstra(g, best, dest, f, sc, reused, opts)
	}
	return orderOut
}

// adaptiveDijkstra is modifiedDijkstra with reuse accounting: each fold of
// a completed row t increments reused[t]. It shares the fold kernel
// dispatch and queue compaction of the main solver but not the fold
// batching — the adaptive variant is sequential by construction, so there
// is no published-mid-relaxation row to defer.
func adaptiveDijkstra(g *graph.Graph, s int32, dest rowDest, f *flags, sc *scratch, reused []int64, opts Options) {
	row := dest.begin(s)
	q := sc.queue[:0]
	q = append(q, s)
	sc.inQueue[s] = true
	head := 0
	st := &sc.stats
	for head < len(q) {
		t := q[head]
		head++
		if head > queueCompactMin && head*2 >= len(q) {
			q = q[:copy(q, q[head:])]
			head = 0
		}
		sc.inQueue[t] = false
		dt := row[t]
		if !opts.DisableRowReuse && t != s && f.done(t) {
			reused[t]++
			foldRow(dest, f, row, t, dt, st)
			continue
		}
		adj, w := g.NeighborsW(t)
		imp := sc.improved[:0]
		if w == nil {
			imp = kernel.RelaxUnweighted(row, adj, matrix.AddSat(dt, 1), imp)
		} else {
			imp = kernel.RelaxWeighted(row, adj, w, dt, imp)
		}
		for _, v := range imp {
			if !sc.inQueue[v] {
				sc.inQueue[v] = true
				q = append(q, v)
			}
		}
		sc.improved = imp[:0]
	}
	sc.queue = q[:0]
	f.set(s)
}

// dijkstraKernel registers the paper's modified Dijkstra (Algorithm 1) as
// the default source kernel. It is the only kernel supporting every option
// combination: PaperQueue selects the pseudocode-verbatim queue
// discipline, DisableRowReuse simply skips the folds.
type dijkstraKernel struct{}

func (dijkstraKernel) Name() string                                { return KernelDijkstra }
func (dijkstraKernel) Supports(g *graph.Graph, opts Options) error { return nil }
func (dijkstraKernel) Grain() int                                  { return 1 }

func (dijkstraKernel) Bind(rt *Runtime) KernelRun {
	return &dijkstraRun{rt: rt, scratches: make([]*scratch, rt.Workers)}
}

type dijkstraRun struct {
	rt        *Runtime
	scratches []*scratch
}

func (r *dijkstraRun) Run(w, lo, hi int) {
	rt := r.rt
	sc := r.scratches[w]
	if sc == nil {
		sc = getScratch(rt.G.N())
		r.scratches[w] = sc
		if rt.Rec != nil {
			if rt.Seq {
				// Sequential presets execute on the coordinator goroutine,
				// so fold-drain events go to the coordinator lane.
				sc.attachObs(rt.Rec, rt.Rec.Coordinator())
			} else {
				sc.attachObs(rt.Rec, rt.Rec.Lane(w))
			}
		}
	}
	for i := lo; i < hi; i++ {
		modifiedDijkstra(rt.G, rt.Sources[i], rt.Dest, rt.Flags, sc, rt.Opts)
	}
}

func (r *dijkstraRun) Finish() Counters {
	var total Counters
	for _, sc := range r.scratches {
		if sc != nil {
			total.Add(sc.stats)
			putScratch(sc)
		}
	}
	return total
}
