package core

import (
	"fmt"
	"sync"

	"parapsp/internal/graph"
	"parapsp/internal/kernel"
	"parapsp/internal/matrix"
)

// The Δ*-stepping source kernel: lazy-batched Δ-stepping after Dong, Gu,
// Sun & Zhang's stepping-algorithm framework (arXiv:2105.06145), which
// treats Δ-, Δ*- and ρ-stepping as policies of one algorithm; this is the
// one policy the dispatch table picks. Vertices with tentative distance d
// are due in bucket ⌊d/Δ⌋ (Meyer & Sanders; the shared-memory formulation
// follows Kranjčević et al., arXiv:1604.02113). Bucket i is drained to a
// fixpoint over the light edges (weight ≤ Δ) — a relaxation can re-fill
// the bucket being drained — and the heavy edges (weight > Δ) of every
// vertex settled in the bucket are then relaxed once, since a heavy edge
// can only reach buckets > i. Δ = 1 on an unweighted graph degenerates to
// BFS. The width heuristic and the light/heavy CSR split live in
// ksplit.go.
//
// Classic Δ-stepping pays for every decrease-key: push maintains an exact
// inverse map so each vertex sits in at most one bucket and stale entries
// are tombstoned. The lazy variant drops that maintenance entirely —
// every relaxation that improves a vertex appends one entry, the vertex
// and the distance it was pushed with, to a pending list, and nothing is
// ever moved or deleted. Validity is decided at pop time against that
// distance and lastExp, the tentative distance at which the vertex was
// last expanded in this source's search:
//
//	a popped entry (v, d) is live  ⇔  row[v] == d  and  row[v] < lastExp[v]
//
// The invariant this rests on: whenever a relaxation improves row[v], an
// entry carrying the new distance is appended at (or before, clamped to)
// the bucket where that distance is due; so after the last relaxation of
// v there is a pending entry that still matches row[v] unless a fold
// lowered it since, and v is then expanded (or folded) at that distance.
// An entry whose row value dropped below its pushed distance is dead: a
// later relaxation left its own entry, and a fold's row already bounds
// every continuation through v (below). Duplicates — a vertex improved
// twice through parallel edges of one relaxation — fail the lastExp
// comparison; each dead entry costs two array reads. Expansion sets
// lastExp[v] = row[v], so re-expansion happens only after a further
// strict improvement — exactly the reprocessing the eager variant does
// via re-bucketing.
//
// The kernel composes with completed-row reuse. When a live pop t has a
// published final row, the row is folded into the current row and t's
// edges — light AND heavy — are skipped: row t is final and the triangle
// inequality D[t][x] ≤ D[t][u] + w(u,x) means the fold already bounds
// every continuation through t. For the same reason fold-improved
// vertices are not re-enqueued (the argument of modifiedDijkstra), and a
// queued entry whose distance a fold lowered is dropped rather than
// folded or expanded again. A popped vertex's distance may sit below its
// bucket's nominal range; pushes are clamped never to land behind the
// cursor (label correcting makes late processing harmless, never wrong).

// stepScratch is the per-worker state of one Δ*-stepping run. Every run
// ends with the buckets empty and lastExp all Inf (reset via the touched
// list), so the scratch pools across sources and solves.
type stepScratch struct {
	// buckets are the lazy pending lists, indexed by absolute bucket
	// number and grown on demand; entries are appended on every
	// improvement, never moved or deleted.
	buckets [][]stepEntry
	// lastExp[v] is the tentative distance at which v was last expanded
	// or folded in the current source's search; Inf = not yet.
	lastExp []matrix.Dist
	touched []int32
	// rvec/inR: the settled set of the current bucket awaiting heavy
	// relaxation.
	rvec     []int32
	inR      []bool
	improved []int32
	stats    Counters
	maxB     int
}

// stepEntry is one lazy bucket entry: vertex v, pushed when a relaxation
// set row[v] to d.
type stepEntry struct {
	v int32
	d matrix.Dist
}

var stepPool sync.Pool

func getStepScratch(n int) *stepScratch {
	sc, _ := stepPool.Get().(*stepScratch)
	if sc == nil {
		sc = &stepScratch{}
	}
	if len(sc.lastExp) < n {
		sc.lastExp = make([]matrix.Dist, n)
		for i := range sc.lastExp {
			sc.lastExp[i] = matrix.Inf
		}
		sc.inR = make([]bool, n)
	}
	return sc
}

func putStepScratch(sc *stepScratch) {
	sc.stats = Counters{}
	stepPool.Put(sc)
}

// lazyPush appends v, now at distance d, to bucket b — no membership
// test, no tombstone, no inverse map; the pop-side comparisons absorb
// stale entries and duplicates.
func (sc *stepScratch) lazyPush(v int32, d matrix.Dist, b int, st *Counters) {
	for len(sc.buckets) <= b {
		sc.buckets = append(sc.buckets, nil)
	}
	sc.buckets[b] = append(sc.buckets[b], stepEntry{v, d})
	if b > sc.maxB {
		sc.maxB = b
	}
	st.Enqueues++
}

type deltaStarKernel struct{}

func (deltaStarKernel) Name() string { return KernelDeltaStar }
func (deltaStarKernel) Grain() int   { return 1 }

// Supports rejects the FIFO solver's paper-verbatim queue, which the
// kernel has no variant of.
func (deltaStarKernel) Supports(g *graph.Graph, opts Options) error {
	if opts.PaperQueue {
		return fmt.Errorf("%w: kernel %q has no paper-queue variant", ErrInvalid, KernelDeltaStar)
	}
	return nil
}

// Bind computes the shared read-only preparation once per solve: the
// bucket width and the light/heavy CSR split every worker then reads
// (buildLHSplit, ksplit.go).
func (deltaStarKernel) Bind(rt *Runtime) KernelRun {
	return &stepRun{rt: rt, lh: buildLHSplit(rt.G), scratches: make([]*stepScratch, rt.Workers)}
}

type stepRun struct {
	rt        *Runtime
	lh        lhSplit
	scratches []*stepScratch
}

func (r *stepRun) Run(w, lo, hi int) {
	sc := r.scratches[w]
	if sc == nil {
		sc = getStepScratch(r.rt.G.N())
		r.scratches[w] = sc
	}
	for i := lo; i < hi; i++ {
		r.deltaStarSource(r.rt.Sources[i], sc)
	}
}

func (r *stepRun) Finish() Counters {
	var total Counters
	for _, sc := range r.scratches {
		if sc != nil {
			total.Add(sc.stats)
			putStepScratch(sc)
		}
	}
	return total
}

// deltaStarSource runs one lazy Δ*-stepping SSSP from s into dest's row.
func (r *stepRun) deltaStarSource(s int32, sc *stepScratch) {
	rt := r.rt
	g := rt.G
	dest := rt.Dest
	f := rt.Flags
	row := dest.begin(s)
	reuse := !rt.Opts.DisableRowReuse
	delta := r.lh.delta
	st := &sc.stats

	sc.maxB = 0
	sc.lazyPush(s, 0, 0, st)
	rvec := sc.rvec[:0]
	for cur := 0; cur <= sc.maxB; cur++ {
		// Light phase: drain bucket cur to a fixpoint. Iterating by index
		// keeps appends made during the drain visible.
		for i := 0; i < len(sc.buckets[cur]); i++ {
			e := sc.buckets[cur][i]
			t, dt := e.v, row[e.v]
			if dt < e.d || dt >= sc.lastExp[t] {
				continue // lowered since the push, or no improvement since the last expansion
			}
			if sc.lastExp[t] == matrix.Inf {
				sc.touched = append(sc.touched, t)
			}
			sc.lastExp[t] = dt
			st.Pops++

			if reuse && t != s && f.done(t) {
				st.Folds++
				foldRow(dest, f, row, t, dt, st)
				continue
			}

			adj, wts := r.lh.light(g, t)
			st.EdgeScans += int64(len(adj))
			imp := sc.improved[:0]
			if wts == nil {
				imp = kernel.RelaxUnweighted(row, adj, matrix.AddSat(dt, 1), imp)
			} else {
				imp = kernel.RelaxWeighted(row, adj, wts, dt, imp)
			}
			st.EdgeUpdates += int64(len(imp))
			for _, v := range imp {
				b := int(row[v] / delta)
				if b < cur {
					b = cur // fold-dragged distance: earliest still-open slot
				}
				sc.lazyPush(v, row[v], b, st)
			}
			sc.improved = imp[:0]
			if r.lh.split && !sc.inR[t] {
				sc.inR[t] = true
				rvec = append(rvec, t)
			}
		}
		sc.buckets[cur] = sc.buckets[cur][:0]

		// Heavy phase: one relaxation of the heavy edges of every vertex
		// settled in this bucket. Heavy targets land in buckets > cur
		// (clamped likewise when a fold dragged the source distance back).
		for _, t := range rvec {
			sc.inR[t] = false
			dt := row[t]
			adj, wts := r.lh.heavy(t)
			st.EdgeScans += int64(len(adj))
			imp := sc.improved[:0]
			imp = kernel.RelaxWeighted(row, adj, wts, dt, imp)
			st.EdgeUpdates += int64(len(imp))
			for _, v := range imp {
				bk := int(row[v] / delta)
				if bk <= cur {
					bk = cur + 1
				}
				sc.lazyPush(v, row[v], bk, st)
			}
			sc.improved = imp[:0]
		}
		rvec = rvec[:0]
	}
	sc.rvec = rvec[:0]
	for _, v := range sc.touched {
		sc.lastExp[v] = matrix.Inf
	}
	sc.touched = sc.touched[:0]
	f.set(s)
}
