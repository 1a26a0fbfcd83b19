package core

import (
	"fmt"
	"sort"
	"sync"

	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/sched"
)

// SubsetResult holds shortest-path rows for a subset of sources: the
// memory-bounded variant of APSP for graphs whose full n*n matrix would
// not fit (the paper's own experiments were capped by the 256 GB of
// Machine-II; subset solves are how a user works beyond that cap).
type SubsetResult struct {
	// Sources are the solved source vertices, in the order their rows
	// appear.
	Sources []int32
	// Engine names the solver that produced the rows: EngineScalar for
	// the scalar kernels, EngineMSBFS / EngineSweep for the multi-source
	// lane kernels. The rows are identical either way.
	Engine string
	// Kernel is the registry name of the SSSP kernel that produced the
	// rows (see Options.Kernel).
	Kernel string
	rowIdx map[int32]int
	n      int
	rows   []matrix.Dist // len(Sources) * n, row-major
}

// Row returns the distance row of source s (aliasing internal storage),
// or nil if s was not in the solved subset.
func (r *SubsetResult) Row(s int32) []matrix.Dist {
	i, ok := r.rowIdx[s]
	if !ok {
		return nil
	}
	return r.rows[i*r.n : (i+1)*r.n]
}

// At returns the distance from source s to v; it panics if s was not
// solved (use Row to probe membership).
func (r *SubsetResult) At(s, v int32) matrix.Dist {
	row := r.Row(s)
	if row == nil {
		panic(fmt.Sprintf("core: source %d not in subset", s))
	}
	return row[v]
}

// MemBytes reports the payload size of the subset rows.
func (r *SubsetResult) MemBytes() uint64 { return uint64(len(r.rows)) * 4 }

// Batched reports whether the multi-source batch engine produced the rows.
func (r *SubsetResult) Batched() bool { return r.Engine != EngineScalar }

// Checksum hashes every row in source order — comparable across engines
// (and against matrix.ChecksumDists of the same rows concatenated), so the
// differential tests and the batch benchmark can assert byte-identical
// solutions without keeping both row sets alive.
func (r *SubsetResult) Checksum() uint64 { return matrix.ChecksumDists(r.rows) }

// SolveSubset computes exact single-source rows for the given sources only,
// with the same modified-Dijkstra + row-reuse machinery as the full solver:
// a search may fold in the completed row of any other *subset* source.
// Sources are deduplicated and processed in descending degree order (the
// optimized ordering restricted to the subset). Memory is
// O(len(sources) * n) instead of O(n^2).
func SolveSubset(g *graph.Graph, sources []int32, opts Options) (*SubsetResult, error) {
	n := g.N()
	uniq := make([]int32, 0, len(sources))
	seen := make(map[int32]bool, len(sources))
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("%w: source %d out of range [0,%d)", ErrInvalid, s, n)
		}
		if !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	k := len(uniq)
	if opts.MaxMemBytes != 0 {
		if need := uint64(k) * uint64(n) * 4; need > opts.MaxMemBytes {
			return nil, fmt.Errorf("%w: need %d bytes for %d rows, bound %d", ErrMemory, need, k, opts.MaxMemBytes)
		}
	}

	// Descending degree order within the subset, ties by vertex id —
	// the same heuristic as the full optimized algorithm.
	sort.SliceStable(uniq, func(a, b int) bool {
		da, db := g.OutDegree(uniq[a]), g.OutDegree(uniq[b])
		if da != db {
			return da > db
		}
		return uniq[a] < uniq[b]
	})

	res := &SubsetResult{
		Sources: uniq,
		rowIdx:  make(map[int32]int, k),
		n:       n,
		rows:    make([]matrix.Dist, k*n),
	}
	for i, s := range uniq {
		res.rowIdx[s] = i
	}

	workers := sched.Workers(opts.Workers)
	if opts.Obs != nil && opts.Obs.Workers() < workers {
		return nil, fmt.Errorf("%w: obs recorder has %d worker lanes, need %d",
			ErrInvalid, opts.Obs.Workers(), workers)
	}
	// Same pipeline as the full Solve, with the subset row block as the
	// destination and the same dispatch table, keyed on the unique source
	// count (a lane kernel solves lane-width groups of subset rows with one
	// shared traversal each; reuse does not cross groups, the rows are
	// identical).
	kern, err := resolveKernel(ParAPSP, g, opts, k)
	if err != nil {
		return nil, err
	}
	res.Engine = engineOf(kern)
	res.Kernel = kern.Name()
	rt := &Runtime{
		G: g, Opts: opts, Workers: workers, Sources: uniq,
		Dest: rowDest{sub: res}, Flags: newFlags(n), Rec: opts.Obs,
	}
	runPipeline(rt, kern, sched.DynamicCyclic)
	return res, nil
}

// scratchPool recycles scalar per-worker scratch across SolveSubset calls,
// so a serving process answering a steady stream of subset queries does
// not reallocate the O(n) queue state per request. The search loop leaves
// queue empty and inQueue all-false on completion, so a pooled scratch
// only needs its stats and obs hooks cleared.
var scratchPool sync.Pool

func getScratch(n int) *scratch {
	sc, _ := scratchPool.Get().(*scratch)
	if sc == nil {
		return newScratch(n)
	}
	if len(sc.inQueue) < n {
		sc.inQueue = make([]bool, n)
	}
	return sc
}

func putScratch(sc *scratch) {
	sc.stats = Counters{}
	sc.obsRec, sc.obsLane = nil, nil
	scratchPool.Put(sc)
}
