package core

import (
	"fmt"

	"parapsp/internal/graph"
	"parapsp/internal/kernel"
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
// queue, a settled bitmap with an undo list for O(settled) reset, the
// relaxation kernels' improved-vertex buffer and the work counters.
type heapScratch struct {
	heap     distHeap
	settled  []bool
	touched  []int32
	improved []int32
	stats    Counters
}

func newHeapScratch(n int) *heapScratch {
	return &heapScratch{settled: make([]bool, n), touched: make([]int32, 0, 64)}
}

// modifiedDijkstraHeap is the priority-queue formulation of Algorithm 1:
// the same relaxations and row reuse, but vertices are settled in distance
// order (classic Dijkstra with lazy deletion) instead of the paper's FIFO
// label-correcting order, at the price of O(log n) queue operations.
//
// A popped vertex t with a final row is folded through foldRow, and the
// vertices the fold lowered are not pushed: row t is final, so it bounds
// every continuation through them (the argument of modifiedDijkstra). An
// entry whose distance a fold lowered since its push is dropped at pop,
// like an entry a later push superseded, so every vertex is settled at
// most once, at its exact distance.
//
// The solutions are identical; the heap kernel's ablation measures which
// queue discipline wins on scale-free inputs (the paper implicitly chose
// FIFO).
func modifiedDijkstraHeap(g *graph.Graph, s int32, dest rowDest, f *flags, sc *heapScratch, opts Options) {
	row := dest.begin(s)
	reuse := !opts.DisableRowReuse
	st := &sc.stats

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
		st.Pops++

		if reuse && t != s && f.done(t) {
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
		st.Enqueues += int64(len(imp))
		for _, v := range imp {
			if !sc.settled[v] {
				sc.heap.push(v, row[v])
			}
		}
		sc.improved = imp[:0]
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

func (r *heapRun) Finish() Counters {
	var total Counters
	for _, sc := range r.scratches {
		if sc != nil {
			total.Add(sc.stats)
		}
	}
	return total
}
