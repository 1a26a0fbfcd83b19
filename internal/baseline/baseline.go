// Package baseline implements the classic APSP algorithms the paper
// positions itself against — Floyd-Warshall, repeated binary-heap
// Dijkstra, repeated Bellman-Ford, and repeated SPFA — used both as
// correctness oracles in the test suite and as comparison points in the
// benchmark harness (Sections 2 and 6 of the paper).
package baseline

import (
	"container/heap"

	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// FloydWarshall computes APSP by the classic O(n^3) dynamic program
// (Floyd 1962). It is the simplest correct algorithm and serves as the
// oracle for every other implementation in the repository.
func FloydWarshall(g *graph.Graph) *matrix.Matrix {
	n := g.N()
	D := matrix.NewZero(n)
	D.InitAPSP()
	for u := 0; u < n; u++ {
		row := D.Row(u)
		adj, w := g.NeighborsW(int32(u))
		for i, v := range adj {
			wt := matrix.Dist(1)
			if w != nil {
				wt = w[i]
			}
			if wt < row[v] {
				row[v] = wt
			}
		}
	}
	for k := 0; k < n; k++ {
		rowK := D.Row(k)
		for i := 0; i < n; i++ {
			rowI := D.Row(i)
			dik := rowI[k]
			if dik == matrix.Inf {
				continue
			}
			for j := 0; j < n; j++ {
				if nd := matrix.AddSat(dik, rowK[j]); nd < rowI[j] {
					rowI[j] = nd
				}
			}
		}
	}
	return D
}

// distHeap is a binary min-heap of (vertex, dist) pairs for Dijkstra.
type distHeap struct {
	vs []int32
	ds []matrix.Dist
}

func (h *distHeap) Len() int           { return len(h.vs) }
func (h *distHeap) Less(i, j int) bool { return h.ds[i] < h.ds[j] }
func (h *distHeap) Swap(i, j int) {
	h.vs[i], h.vs[j] = h.vs[j], h.vs[i]
	h.ds[i], h.ds[j] = h.ds[j], h.ds[i]
}
func (h *distHeap) Push(x any) {
	p := x.([2]uint64)
	h.vs = append(h.vs, int32(p[0]))
	h.ds = append(h.ds, matrix.Dist(p[1]))
}
func (h *distHeap) Pop() any {
	n := len(h.vs) - 1
	p := [2]uint64{uint64(h.vs[n]), uint64(h.ds[n])}
	h.vs, h.ds = h.vs[:n], h.ds[:n]
	return p
}

// DijkstraSSSP computes single-source shortest paths from s into dist,
// using a binary heap with lazy deletion (Dijkstra 1959). dist must have
// length g.N(); it is overwritten.
func DijkstraSSSP(g *graph.Graph, s int32, dist []matrix.Dist) {
	for i := range dist {
		dist[i] = matrix.Inf
	}
	dist[s] = 0
	h := &distHeap{}
	heap.Push(h, [2]uint64{uint64(s), 0})
	for h.Len() > 0 {
		p := heap.Pop(h).([2]uint64)
		t, dt := int32(p[0]), matrix.Dist(p[1])
		if dt > dist[t] {
			continue // stale entry
		}
		adj, w := g.NeighborsW(t)
		for i, v := range adj {
			wt := matrix.Dist(1)
			if w != nil {
				wt = w[i]
			}
			if nd := matrix.AddSat(dt, wt); nd < dist[v] {
				dist[v] = nd
				heap.Push(h, [2]uint64{uint64(v), uint64(nd)})
			}
		}
	}
}

// DijkstraAPSP computes APSP by running heap Dijkstra from every vertex —
// the "naive approach" of Section 2.1, and the strongest conventional
// baseline for sparse graphs.
func DijkstraAPSP(g *graph.Graph) *matrix.Matrix {
	n := g.N()
	D := matrix.New(n)
	for s := 0; s < n; s++ {
		DijkstraSSSP(g, int32(s), D.Row(s))
	}
	return D
}

// BellmanFordSSSP computes single-source shortest paths by |V|-1 rounds of
// full edge relaxation (Bellman 1958). O(nm); kept simple because it is an
// oracle, not a contender.
func BellmanFordSSSP(g *graph.Graph, s int32, dist []matrix.Dist) {
	n := g.N()
	for i := range dist {
		dist[i] = matrix.Inf
	}
	dist[s] = 0
	for round := 1; round < n; round++ {
		changed := false
		for u := 0; u < n; u++ {
			du := dist[u]
			if du == matrix.Inf {
				continue
			}
			adj, w := g.NeighborsW(int32(u))
			for i, v := range adj {
				wt := matrix.Dist(1)
				if w != nil {
					wt = w[i]
				}
				if nd := matrix.AddSat(du, wt); nd < dist[v] {
					dist[v] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
}

// BellmanFordAPSP computes APSP by repeated Bellman-Ford.
func BellmanFordAPSP(g *graph.Graph) *matrix.Matrix {
	n := g.N()
	D := matrix.New(n)
	for s := 0; s < n; s++ {
		BellmanFordSSSP(g, int32(s), D.Row(s))
	}
	return D
}

// SPFASSSP is the queue-based Bellman-Ford refinement (Shortest Path
// Faster Algorithm): exactly the modified Dijkstra of the paper with row
// reuse disabled. It exists as an independent implementation so the
// core package's ablation mode can be cross-checked against it.
func SPFASSSP(g *graph.Graph, s int32, dist []matrix.Dist) {
	n := g.N()
	for i := range dist {
		dist[i] = matrix.Inf
	}
	dist[s] = 0
	inQ := make([]bool, n)
	q := make([]int32, 0, 64)
	q = append(q, s)
	inQ[s] = true
	for head := 0; head < len(q); head++ {
		t := q[head]
		inQ[t] = false
		dt := dist[t]
		adj, w := g.NeighborsW(t)
		for i, v := range adj {
			wt := matrix.Dist(1)
			if w != nil {
				wt = w[i]
			}
			if nd := matrix.AddSat(dt, wt); nd < dist[v] {
				dist[v] = nd
				if !inQ[v] {
					inQ[v] = true
					q = append(q, v)
				}
			}
		}
	}
}

// SPFAAPSP computes APSP by repeated SPFA.
func SPFAAPSP(g *graph.Graph) *matrix.Matrix {
	n := g.N()
	D := matrix.New(n)
	for s := 0; s < n; s++ {
		SPFASSSP(g, int32(s), D.Row(s))
	}
	return D
}

// BFSSSSP computes hop-count distances from s by breadth-first search.
// Valid only for unweighted graphs; it is the fastest possible oracle for
// the paper's (unweighted) experimental datasets.
func BFSSSSP(g *graph.Graph, s int32, dist []matrix.Dist) {
	for i := range dist {
		dist[i] = matrix.Inf
	}
	dist[s] = 0
	q := make([]int32, 0, 64)
	q = append(q, s)
	for head := 0; head < len(q); head++ {
		t := q[head]
		nd := dist[t] + 1
		for _, v := range g.Neighbors(t) {
			if dist[v] == matrix.Inf {
				dist[v] = nd
				q = append(q, v)
			}
		}
	}
}

// BFSAPSP computes hop-count APSP by repeated BFS. It panics if the graph
// is weighted, because hop counts would be wrong answers there.
func BFSAPSP(g *graph.Graph) *matrix.Matrix {
	if g.Weighted() {
		panic("baseline: BFSAPSP requires an unweighted graph")
	}
	n := g.N()
	D := matrix.New(n)
	for s := 0; s < n; s++ {
		BFSSSSP(g, int32(s), D.Row(s))
	}
	return D
}
