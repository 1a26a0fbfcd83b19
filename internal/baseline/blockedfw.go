package baseline

import (
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/sched"
)

// BlockSize is the tile edge used by BlockedFloydWarshall. 64 entries of
// 4 bytes = a 16 KiB tile, three of which fit comfortably in an L1/L2
// working set.
const BlockSize = 64

// BlockedFloydWarshall computes APSP with the cache-blocked (tiled)
// Floyd-Warshall algorithm that Katz & Kider's GPU APSP (reference [11] of
// the paper, discussed in Section 6) builds on, optionally parallelized
// across tiles within each phase.
//
// The k loop is processed in tiles of BlockSize: for each diagonal tile
// (phase 1) the tile is closed on itself; phase 2 closes the tiles sharing
// its row and column; phase 3 updates all remaining tiles from their
// phase-2 row/column tiles. Phases 2 and 3 have no intra-phase
// dependencies, so their tiles run in parallel across workers. The result
// is exactly the Floyd-Warshall solution; the related-work benchmark uses
// it to show that even a tuned O(n^3) algorithm loses to the modified
// Dijkstra family on sparse complex networks.
func BlockedFloydWarshall(g *graph.Graph, workers int) *matrix.Matrix {
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

	nb := (n + BlockSize - 1) / BlockSize
	// updateTile relaxes tile (bi,bj) using the k range of tile bk:
	// D[i][j] = min(D[i][j], D[i][k] + D[k][j]) for the tile's index ranges.
	updateTile := func(bi, bj, bk int) {
		iLo, iHi := bi*BlockSize, min(n, (bi+1)*BlockSize)
		jLo, jHi := bj*BlockSize, min(n, (bj+1)*BlockSize)
		kLo, kHi := bk*BlockSize, min(n, (bk+1)*BlockSize)
		for k := kLo; k < kHi; k++ {
			rowK := D.Row(k)
			for i := iLo; i < iHi; i++ {
				rowI := D.Row(i)
				dik := rowI[k]
				if dik == matrix.Inf {
					continue
				}
				for j := jLo; j < jHi; j++ {
					if nd := matrix.AddSat(dik, rowK[j]); nd < rowI[j] {
						rowI[j] = nd
					}
				}
			}
		}
	}

	for bk := 0; bk < nb; bk++ {
		// Phase 1: the diagonal tile closes itself.
		updateTile(bk, bk, bk)
		// Phase 2: the pivot row and column tiles (independent of each
		// other given the closed diagonal tile).
		sched.ParallelFor(2*nb, workers, sched.Block, func(x int) {
			b := x / 2
			if b == bk {
				return
			}
			if x%2 == 0 {
				updateTile(bk, b, bk) // pivot row
			} else {
				updateTile(b, bk, bk) // pivot column
			}
		})
		// Phase 3: all remaining tiles, fully independent.
		sched.ParallelFor(nb*nb, workers, sched.Block, func(x int) {
			bi, bj := x/nb, x%nb
			if bi == bk || bj == bk {
				return
			}
			updateTile(bi, bj, bk)
		})
	}
	return D
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
