package core

import (
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// Path rebuilds a shortest path s -> v from s's distance row alone,
// walking backwards from v: a vertex w precedes t on some shortest path
// iff there is an arc w->t with row[w] + weight(w,t) == row[t]. The
// incoming arcs of t are the outgoing arcs of t in rev, the reverse graph
// (rev aliases g for undirected graphs). It returns the vertices from s
// to v inclusive, [s] when v == s, and nil when v is unreachable. Cost is
// O(path length * max in-degree), with no memory beyond the row.
//
// Path is the only path builder: the result depends only on the graph
// and the exact distances, never on the algorithm, kernel or worker count
// that produced the row, so the serving layer and the library return the
// same sequence for the same pair.
func Path(rev *graph.Graph, row []matrix.Dist, s, v int32) []int32 {
	if row[v] == matrix.Inf {
		return nil
	}
	// Collected in reverse (v first), then flipped.
	path := []int32{v}
	cur := v
	for cur != s {
		adj, wts := rev.NeighborsW(cur)
		prev := int32(-1)
		for i, w := range adj {
			wt := matrix.Dist(1)
			if wts != nil {
				wt = wts[i]
			}
			if row[w] != matrix.Inf && matrix.AddSat(row[w], wt) == row[cur] {
				prev = w
				break
			}
		}
		if prev < 0 || len(path) > len(row) {
			// A finite distance always has a predecessor on a shortest
			// path; this guard only trips on a corrupted row.
			return nil
		}
		path = append(path, prev)
		cur = prev
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
