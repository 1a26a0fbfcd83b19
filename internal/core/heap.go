package core

import (
	"fmt"

	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// distHeap is a minimal binary min-heap of (vertex, dist) pairs with lazy
// deletion, reused across the sources a worker processes.
type distHeap struct {
	vs []int32
	ds []matrix.Dist
}

func (h *distHeap) reset() { h.vs = h.vs[:0]; h.ds = h.ds[:0] }

func (h *distHeap) push(v int32, d matrix.Dist) {
	h.vs = append(h.vs, v)
	h.ds = append(h.ds, d)
	i := len(h.vs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.ds[p] <= h.ds[i] {
			break
		}
		h.vs[p], h.vs[i] = h.vs[i], h.vs[p]
		h.ds[p], h.ds[i] = h.ds[i], h.ds[p]
		i = p
	}
}

func (h *distHeap) pop() (int32, matrix.Dist) {
	v, d := h.vs[0], h.ds[0]
	last := len(h.vs) - 1
	h.vs[0], h.ds[0] = h.vs[last], h.ds[last]
	h.vs, h.ds = h.vs[:last], h.ds[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.ds[l] < h.ds[small] {
			small = l
		}
		if r < last && h.ds[r] < h.ds[small] {
			small = r
		}
		if small == i {
			break
		}
		h.vs[small], h.vs[i] = h.vs[i], h.vs[small]
		h.ds[small], h.ds[i] = h.ds[i], h.ds[small]
		i = small
	}
	return v, d
}

// heapScratch is the per-worker state of the heap variant: the priority
// queue plus a settled bitmap with an undo list for O(settled) reset.
type heapScratch struct {
	heap    distHeap
	settled []bool
	touched []int32
}

func newHeapScratch(n int) *heapScratch {
	return &heapScratch{settled: make([]bool, n), touched: make([]int32, 0, 64)}
}

// modifiedDijkstraHeap is the priority-queue formulation of Algorithm 1:
// identical relaxations and row-combine reuse, but vertices are settled in
// distance order (classic Dijkstra with lazy deletion) instead of the
// paper's FIFO label-correcting order. Each vertex is therefore processed
// at most once — the FIFO variant may reprocess a vertex whose distance
// improved — at the price of O(log n) queue operations.
//
// The solutions are identical; the heap kernel's ablation measures which
// queue discipline wins on scale-free inputs (the paper implicitly chose
// FIFO).
func modifiedDijkstraHeap(g *graph.Graph, s int32, dest rowDest, f *flags, sc *heapScratch, opts Options) {
	row := dest.begin(s)
	reuse := !opts.DisableRowReuse

	sc.heap.reset()
	for _, v := range sc.touched {
		sc.settled[v] = false
	}
	sc.touched = sc.touched[:0]

	sc.heap.push(s, 0)
	for len(sc.heap.vs) > 0 {
		t, dt := sc.heap.pop()
		if sc.settled[t] || dt > row[t] {
			continue // stale entry
		}
		sc.settled[t] = true
		sc.touched = append(sc.touched, t)

		if reuse && t != s && f.done(t) {
			// The re-push of improved vertices keeps this loop scalar
			// (the fold kernels update distances only), but the fold
			// view still narrows the sweep to the published row's
			// finite span.
			rt := dest.row(t)
			fv := f.view(t, rt)
			if fv.hi-fv.lo <= 1 {
				continue // only the diagonal: dt+0 cannot improve row[t]
			}
			for v := fv.lo; v < fv.hi; v++ {
				dtv := rt[v]
				if dtv == matrix.Inf {
					continue
				}
				if nd := matrix.AddSat(dt, dtv); nd < row[v] {
					row[v] = nd
					// Settled-in-distance-order requires the improved
					// vertices to re-enter the queue: unlike the FIFO
					// variant, a later pop of v with a stale higher key
					// would otherwise settle it before its own fold
					// opportunities are reflected. Push keeps the
					// distance-order invariant.
					if !sc.settled[v] {
						sc.heap.push(int32(v), nd)
					}
				}
			}
			continue
		}

		adj, w := g.NeighborsW(t)
		for i, v := range adj {
			wt := matrix.Dist(1)
			if w != nil {
				wt = w[i]
			}
			if nd := matrix.AddSat(dt, wt); nd < row[v] {
				row[v] = nd
				if !sc.settled[v] {
					sc.heap.push(v, nd)
				}
			}
		}
	}
	f.set(s)
}

// heapKernel exposes the heap formulation as the "heap" kernel — the
// queue-discipline ablation. The paper-verbatim queue is a FIFO-solver
// mechanism and is rejected.
type heapKernel struct{}

func (heapKernel) Name() string { return KernelHeap }
func (heapKernel) Grain() int   { return 1 }

func (heapKernel) Supports(g *graph.Graph, opts Options) error {
	if opts.PaperQueue {
		return fmt.Errorf("%w: kernel %q has no paper-queue variant", ErrInvalid, KernelHeap)
	}
	return nil
}

func (heapKernel) Bind(rt *Runtime) KernelRun {
	return &heapRun{rt: rt, scratches: make([]*heapScratch, rt.Workers)}
}

type heapRun struct {
	rt        *Runtime
	scratches []*heapScratch
}

func (r *heapRun) Run(w, lo, hi int) {
	rt := r.rt
	sc := r.scratches[w]
	if sc == nil {
		sc = newHeapScratch(rt.G.N())
		r.scratches[w] = sc
	}
	for i := lo; i < hi; i++ {
		modifiedDijkstraHeap(rt.G, rt.Sources[i], rt.Dest, rt.Flags, sc, rt.Opts)
	}
}

// Finish returns zero counters: the heap variant has always left the work
// counters unpopulated (Result.Stats documents this), and the ablation
// compares wall time, not counter streams.
func (r *heapRun) Finish() Counters { return Counters{} }
