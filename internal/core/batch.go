package core

import (
	"fmt"
	"sync"

	"parapsp/internal/graph"
	"parapsp/internal/kernel"
	"parapsp/internal/matrix"
	"parapsp/internal/obs"
)

// The multi-source batch engine. The scalar solvers run one source at a
// time, so a batch of B sources streams the whole CSR adjacency B times;
// on the paper's unweighted power-law graphs the per-vertex work is
// trivial and that edge scan is the bound. The batch engine amortizes it:
//
//   - Unweighted graphs run a bit-parallel MS-BFS (Then et al., VLDB
//     2014): up to 64 sources share one uint64 lane word per vertex
//     (visit/next/seen bitmaps), each BFS level sweeps the adjacency once
//     for the whole batch, and finished levels are scattered into the
//     per-source distance rows. BFS levels ARE the exact hop-count
//     distances, so the result is bit-identical to the scalar solver's.
//
//   - Weighted graphs run a shared-sweep label-correcting SSSP: the B
//     tentative distance vectors are stored lane-major (B contiguous
//     entries per vertex), a lane bitmap marks which searches have each
//     vertex in their frontier, and every sweep reads each active
//     vertex's adjacency once while relaxing all its active lanes against
//     the hot edge. The fixpoint of label correction is the unique
//     shortest-distance vector, so this too matches the scalar solver
//     exactly.
//
// Completed-row reuse (the fold mechanism) is deliberately OFF inside a
// batch: a fold substitutes a finished row for a subtree expansion, but
// inside a bit-parallel batch no row is finished until the whole batch
// is, and folding one lane's row into another would break the lane
// packing (each fold is a per-pair row sweep — exactly the scalar work
// the batch exists to avoid). The batch's amortized edge scan replaces
// what reuse bought. resolveKernel (kernelreg.go) picks a lane engine only
// where that trade wins — unweighted graphs, where a level is one word OR
// per arc, and weighted subsets of under half the vertices, where few
// finished rows exist to fold — and a folding scalar kernel everywhere
// else; DESIGN.md §9 has the measurements.

// batchLaneWidth is the number of sources packed per lane word.
const batchLaneWidth = 64

// Engine names for SubsetResult.Engine and the serve layer's solver tag.
const (
	EngineScalar = "scalar"
	EngineMSBFS  = "msbfs"
	EngineSweep  = "sweep"
)

// batchScratch is the per-worker arena of the batch engine: the three
// lane bitmaps of MS-BFS (visit/next double-buffer plus seen), the
// lane-major distance block of the weighted sweep, and the row-pointer
// buffer. It is pooled across batches and across solves (batchPool), so
// steady-state serving traffic allocates nothing on the batch path — the
// zero-alloc test in batch_test.go pins that.
//
// Invariant: between runs, visit and next are all-zero (both engines
// clear frontier words as they consume them and terminate with an empty
// frontier); seen and dist are dirty and re-initialized per run.
type batchScratch struct {
	n     int
	visit []uint64
	next  []uint64
	seen  []uint64
	dist  []matrix.Dist // lane-major weighted distances, cap grows to n*batch
	rows  [][]matrix.Dist
}

var batchPool sync.Pool

// getBatchScratch takes a scratch from the pool, (re)sizing it for an
// n-vertex graph. Steady-state (same n) gets take zero allocations.
func getBatchScratch(n int) *batchScratch {
	sc, _ := batchPool.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{rows: make([][]matrix.Dist, 0, batchLaneWidth)}
	}
	if sc.n < n {
		sc.visit = make([]uint64, n)
		sc.next = make([]uint64, n)
		sc.seen = make([]uint64, n)
		sc.n = n
	}
	return sc
}

// putBatchScratch returns sc to the pool. The row pointers are cleared
// first: they point into the solve's destination (a whole n² matrix, or a
// subset's row block), which a pooled scratch must not keep reachable.
func putBatchScratch(sc *batchScratch) {
	clear(sc.rows[:cap(sc.rows)])
	sc.rows = sc.rows[:0]
	batchPool.Put(sc)
}

// msbfs runs one bit-parallel BFS batch: sources[i]'s distances land in
// rows[i], which must be Inf-initialized (diagonal included — msbfs
// writes the 0). len(sources) must be at most batchLaneWidth. Returns the
// number of level-synchronous sweeps.
func (sc *batchScratch) msbfs(g *graph.Graph, sources []int32, rows [][]matrix.Dist, st *Counters) int64 {
	n := g.N()
	visit, next, seen := sc.visit[:n], sc.next[:n], sc.seen[:n]
	for i := range seen {
		seen[i] = 0
	}
	for i, s := range sources {
		bit := uint64(1) << uint(i)
		visit[s] |= bit
		seen[s] |= bit
		rows[i][s] = 0
	}
	var levels int64
	for level := matrix.Dist(1); ; level++ {
		// One adjacency sweep advances every packed search one level.
		// Consuming visit words as we go keeps the double buffer clean
		// for the swap (see the scratch invariant).
		for v := 0; v < n; v++ {
			lanes := visit[v]
			if lanes == 0 {
				continue
			}
			visit[v] = 0
			adj := g.Neighbors(int32(v))
			st.EdgeScans += int64(len(adj))
			kernel.OrLanes(next, adj, lanes)
		}
		if !kernel.AndnNewBits(next, seen) {
			break // no lane discovered a new vertex: all BFS done
		}
		levels++
		st.BatchScattered += kernel.ScatterLevel(next, rows, level)
		visit, next = next, visit
	}
	return levels
}

// sweepSSSP runs one shared-sweep weighted batch: a level-synchronous
// label-correcting relaxation of all len(sources) searches over a
// lane-major distance block, one adjacency read per active vertex per
// sweep regardless of how many lanes are active on it. rows[i] must be
// Inf-initialized; distances are transposed into rows on convergence.
// Returns the number of sweeps.
func (sc *batchScratch) sweepSSSP(g *graph.Graph, sources []int32, rows [][]matrix.Dist, st *Counters) int64 {
	n := g.N()
	b := len(sources)
	if cap(sc.dist) < n*b {
		sc.dist = make([]matrix.Dist, n*b)
	}
	dist := sc.dist[:n*b]
	for i := range dist {
		dist[i] = matrix.Inf
	}
	active, nextAct := sc.visit[:n], sc.next[:n]
	for i, s := range sources {
		dist[int(s)*b+i] = 0
		active[s] |= 1 << uint(i)
	}
	var sweeps int64
	for {
		any := false
		for v := 0; v < n; v++ {
			lanes := active[v]
			if lanes == 0 {
				continue
			}
			active[v] = 0
			adj, w := g.NeighborsW(int32(v))
			st.EdgeScans += int64(len(adj))
			dv := dist[v*b : v*b+b : v*b+b]
			for j, u := range adj {
				du := dist[int(u)*b : int(u)*b+b : int(u)*b+b]
				if improved := kernel.RelaxLanes(du, dv, w[j], lanes); improved != 0 {
					nextAct[u] |= improved
					any = true
				}
			}
		}
		if !any {
			break
		}
		sweeps++
		active, nextAct = nextAct, active
	}
	// Transpose the lane-major block into the row-major destination rows
	// (write-sequential per row; the strided reads stay in cache because
	// consecutive v share lines).
	for i := range sources {
		row := rows[i]
		for v := 0; v < n; v++ {
			row[v] = dist[v*b+i]
		}
		st.BatchScattered += int64(n)
	}
	return sweeps
}

// laneKernel registers the two multi-source batch engines as lane-width
// source kernels: "msbfs" for unweighted graphs, "sweep" for weighted
// ones. Grain() == batchLaneWidth makes the pipeline runner hand each Run
// call one lane-width group of consecutive ordered sources — the batch the
// engine solves with a single shared traversal.
type laneKernel struct {
	name     string
	weighted bool
}

func init() {
	RegisterKernel(laneKernel{name: KernelMSBFS, weighted: false})
	RegisterKernel(laneKernel{name: KernelSweep, weighted: true})
}

func (k laneKernel) Name() string { return k.name }
func (k laneKernel) Grain() int   { return batchLaneWidth }

// Supports refuses what the lane engines cannot do: they are
// single-weighting by construction, and the scalar-only mechanisms (paths,
// the queue ablations, reuse accounting) have no lane formulation.
func (k laneKernel) Supports(g *graph.Graph, opts Options) error {
	if g.Weighted() != k.weighted {
		want := "an unweighted"
		if k.weighted {
			want = "a weighted"
		}
		return fmt.Errorf("%w: kernel %q needs %s graph", ErrInvalid, k.name, want)
	}
	if opts.TrackPaths || opts.PaperQueue || opts.HeapQueue || opts.DisableRowReuse {
		return fmt.Errorf("%w: kernel %q cannot run the scalar-only options (paths/queue/reuse ablations)", ErrInvalid, k.name)
	}
	return nil
}

func (k laneKernel) Bind(rt *Runtime) KernelRun {
	return &laneRun{
		rt:        rt,
		weighted:  k.weighted,
		scratches: make([]*batchScratch, rt.Workers),
		counters:  make([]Counters, rt.Workers),
	}
}

type laneRun struct {
	rt        *Runtime
	weighted  bool
	scratches []*batchScratch
	counters  []Counters
}

// Run solves the lane-width source group rt.Sources[lo:hi] with one shared
// traversal. With a recorder, the batch records a batch-sweep span on its
// worker's lane (Index = batch ordinal, Arg = sweep count).
func (r *laneRun) Run(w, lo, hi int) {
	rt := r.rt
	sc := r.scratches[w]
	if sc == nil {
		sc = getBatchScratch(rt.G.N())
		r.scratches[w] = sc
	}
	rows := sc.rows[:0]
	for i := lo; i < hi; i++ {
		rows = append(rows, rt.Dest.row(rt.Sources[i]))
	}
	sc.rows = rows
	st := &r.counters[w]
	rec := rt.Rec
	var t0 int64
	if rec != nil {
		t0 = rec.Now()
	}
	var sweeps int64
	if r.weighted {
		sweeps = sc.sweepSSSP(rt.G, rt.Sources[lo:hi], rows, st)
	} else {
		sweeps = sc.msbfs(rt.G, rt.Sources[lo:hi], rows, st)
	}
	st.Batches++
	st.BatchSources += int64(hi - lo)
	st.BatchSweeps += sweeps
	if rec != nil {
		rec.Lane(w).Add(obs.Event{Phase: obs.PhaseBatchSweep,
			Start: t0, End: rec.Now(), Index: int64(lo / batchLaneWidth), Arg: sweeps})
	}
	for i := lo; i < hi; i++ {
		rt.Dest.publish(rt.Flags, rt.Sources[i])
	}
}

func (r *laneRun) Finish() Counters {
	var total Counters
	for w, sc := range r.scratches {
		if sc != nil {
			putBatchScratch(sc)
		}
		total.Add(r.counters[w])
	}
	return total
}
