package analysis

import (
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/sched"
)

// DiameterBounds estimates the diameter of an unweighted graph without a
// full APSP: the classic iterated double-sweep. Starting from the
// highest-degree vertex, BFS finds a farthest vertex u; BFS from u finds
// a farthest vertex w at distance L, a *lower* bound; the eccentricity of
// the middle vertex of the u-w path gives an upper bound (2x the middle
// eccentricity bounds any path through it). The sweep repeats `sweeps`
// times from the last farthest vertex, keeping the best bounds.
//
// On complex networks the bounds usually meet after a few sweeps — this
// is what makes diameter queries affordable on graphs whose O(n^2) matrix
// does not fit, complementing the exact APSP path of the library.
// Disconnected graphs get one sweep series per weak component (the
// diameter — the largest finite distance — may live in any of them); the
// returned bounds cover the worst component. It returns (0, 0) for empty
// or edgeless graphs.
func DiameterBounds(g *graph.Graph, sweeps int) (lower, upper matrix.Dist) {
	n := g.N()
	if n == 0 {
		return 0, 0
	}
	if sweeps < 1 {
		sweeps = 1
	}
	// Directed graphs need forward+backward BFS for eccentricity upper
	// bounds; this estimator targets the paper's undirected analysis
	// datasets and treats arcs as traversable both ways.
	var rev *graph.Graph
	if !g.Undirected() {
		rev = g.Transpose()
	}

	dist := make([]matrix.Dist, n)
	parent := make([]int32, n)
	bfs := func(s int32) (far int32, ecc matrix.Dist) {
		for i := range dist {
			dist[i] = matrix.Inf
			parent[i] = -1
		}
		dist[s] = 0
		q := make([]int32, 0, 64)
		q = append(q, s)
		far, ecc = s, 0
		for head := 0; head < len(q); head++ {
			v := q[head]
			nd := dist[v] + 1
			visit := func(u int32) {
				if dist[u] == matrix.Inf {
					dist[u] = nd
					parent[u] = v
					q = append(q, u)
					if nd > ecc {
						ecc = nd
						far = u
					}
				}
			}
			for _, u := range g.Neighbors(v) {
				visit(u)
			}
			if rev != nil {
				for _, u := range rev.Neighbors(v) {
					visit(u)
				}
			}
		}
		return far, ecc
	}

	// One sweep series per weak component, each started from the
	// component's highest-degree vertex — the heuristic that works best on
	// power-law graphs (it sits near the core). A single component's
	// bounds say nothing about the others, and the diameter may live in
	// any of them.
	comp := Components(g)
	starts := map[int]int32{}
	for v := 0; v < n; v++ {
		c := comp[v]
		if s, ok := starts[c]; !ok || g.OutDegree(int32(v)) > g.OutDegree(s) {
			starts[c] = int32(v)
		}
	}

	sweep := func(start int32) (lo, up matrix.Dist) {
		lo, up = 0, matrix.Inf
		u, _ := bfs(start)
		for s := 0; s < sweeps; s++ {
			w, ecc := bfs(u)
			if ecc > lo {
				lo = ecc
			}
			// Walk to the middle of the u-w path and bound from there:
			// diameter <= 2 * ecc(middle).
			mid := w
			for step := matrix.Dist(0); step < ecc/2; step++ {
				mid = parent[mid]
			}
			_, midEcc := bfs(mid)
			if ub := 2 * midEcc; ub < up {
				up = ub
			}
			if up < lo {
				up = lo // bounds from disjoint sweeps may cross; clamp
			}
			if lo == up {
				break
			}
			u = w
		}
		if up == matrix.Inf {
			up = lo
		}
		return lo, up
	}

	for _, start := range starts {
		lo, up := sweep(start)
		if lo > lower {
			lower = lo
		}
		if up > upper {
			upper = up
		}
	}
	return lower, upper
}

// PageRank computes the stationary PageRank vector by parallel power
// iteration with uniform teleportation: damping d, convergence when the
// L1 change drops below tol (or after maxIter rounds). Dangling mass is
// redistributed uniformly. Scores sum to 1.
func PageRank(g *graph.Graph, damping float64, tol float64, maxIter, workers int) []float64 {
	n := g.N()
	if n == 0 {
		return []float64{}
	}
	if damping <= 0 || damping >= 1 {
		damping = 0.85
	}
	if tol <= 0 {
		tol = 1e-9
	}
	if maxIter < 1 {
		maxIter = 100
	}
	workers = sched.Workers(workers)

	// Pull formulation over the transpose: rank[v] = base + d * sum over
	// in-neighbours u of rank[u]/outdeg(u). Pulling lets each output cell
	// be written by one worker — no atomics.
	rev := g.Transpose()
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	outDeg := g.Degrees()

	for iter := 0; iter < maxIter; iter++ {
		var dangling float64
		for v := 0; v < n; v++ {
			if outDeg[v] == 0 {
				dangling += rank[v]
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		sched.ParallelFor(n, workers, sched.Block, func(v int) {
			sum := 0.0
			for _, u := range rev.Neighbors(int32(v)) {
				sum += rank[u] / float64(outDeg[u])
			}
			next[v] = base + damping*sum
		})
		var delta float64
		for v := 0; v < n; v++ {
			d := next[v] - rank[v]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		rank, next = next, rank
		if delta < tol {
			break
		}
	}
	return rank
}
