package core

import (
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// Per-solve preparation of the Δ*-stepping kernel (deltastar, ksteps.go):
// the bucket-width heuristic and the light/heavy CSR split both operate
// on the same Δ, so they live together and the kernel Binds through
// buildLHSplit.

// denseDeltaDegree is the mean-degree threshold of the dense regime of
// deltaWidth. 16 is well above every sparse family the benchmarks use
// (power-law ≈ 5, grid ≈ 4) and well below genuinely dense graphs, where
// one mean-weight bucket would admit far too many simultaneously-active
// vertices.
const denseDeltaDegree = 16

// deltaWidth picks the stepping bucket width Δ for g. The base heuristic
// is the classic Δ = mean edge weight; two corrections apply:
//
//   - Dense graphs (mean degree ≥ denseDeltaDegree) narrow the width to
//     Δ = mean·(n/m): with d = m/n expected out-edges per vertex, a
//     mean-weight bucket holds Θ(d) times more work per phase than the
//     sparse case, so the width shrinks by the same factor to keep the
//     per-bucket frontier (and its wasted re-relaxations) bounded.
//   - Δ is clamped to a positive floor of 1. Near-zero-weight graphs
//     (integer weights, mean < 1) would otherwise get Δ = 0 — an infinite
//     bucket index — and the dense correction can underflow the same way.
//
// Unweighted graphs get Δ = 1, degenerating Δ-stepping into BFS.
func deltaWidth(g *graph.Graph) matrix.Dist {
	if !g.Weighted() {
		return 1
	}
	n := uint64(g.N())
	var total, m uint64
	for v := 0; v < g.N(); v++ {
		_, w := g.NeighborsW(int32(v))
		for _, wt := range w {
			total += uint64(wt)
		}
		m += uint64(len(w))
	}
	if m == 0 {
		return 1
	}
	delta := total / m
	if m >= denseDeltaDegree*n {
		// Δ = mean·(n/m) = total·n/m², in one integer expression so the
		// sub-1 intermediate mean does not truncate to zero first.
		delta = total * n / (m * m)
	}
	if delta < 1 {
		delta = 1
	}
	return matrix.Dist(delta)
}

// lhSplit is the read-only per-solve preparation the stepping kernel's
// workers share: the bucket width and the light/heavy CSR split (light =
// weight ≤ Δ, heavy = weight > Δ). On unweighted graphs split stays
// false — with Δ = 1 every unit edge is light and the original adjacency
// serves as the light set.
type lhSplit struct {
	delta matrix.Dist
	split bool
	// Offsets index the usual adjacency layout: vertex v's light edges
	// are ladj[loff[v]:loff[v+1]] with weights lw[...], heavy likewise.
	loff, hoff []int32
	ladj, hadj []int32
	lw, hw     []matrix.Dist
}

// buildLHSplit computes the width and builds the split, once per solve.
func buildLHSplit(g *graph.Graph) lhSplit {
	s := lhSplit{delta: deltaWidth(g)}
	if !g.Weighted() {
		return s
	}
	s.split = true
	n := g.N()
	loff := make([]int32, n+1)
	hoff := make([]int32, n+1)
	for v := 0; v < n; v++ {
		_, w := g.NeighborsW(int32(v))
		for _, wt := range w {
			if wt <= s.delta {
				loff[v+1]++
			} else {
				hoff[v+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		loff[v+1] += loff[v]
		hoff[v+1] += hoff[v]
	}
	s.ladj = make([]int32, loff[n])
	s.lw = make([]matrix.Dist, loff[n])
	s.hadj = make([]int32, hoff[n])
	s.hw = make([]matrix.Dist, hoff[n])
	for v := 0; v < n; v++ {
		adj, w := g.NeighborsW(int32(v))
		li, hi := loff[v], hoff[v]
		for j, u := range adj {
			if w[j] <= s.delta {
				s.ladj[li], s.lw[li] = u, w[j]
				li++
			} else {
				s.hadj[hi], s.hw[hi] = u, w[j]
				hi++
			}
		}
	}
	s.loff, s.hoff = loff, hoff
	return s
}

// light returns v's light adjacency: the split slices when built, the full
// adjacency otherwise (unweighted ⇒ every edge is light; wts nil then).
func (s *lhSplit) light(g *graph.Graph, v int32) (adj []int32, wts []matrix.Dist) {
	if s.split {
		a, b := s.loff[v], s.loff[v+1]
		return s.ladj[a:b], s.lw[a:b]
	}
	return g.Neighbors(v), nil
}

// heavy returns v's heavy adjacency (empty unless the split is built).
func (s *lhSplit) heavy(v int32) (adj []int32, wts []matrix.Dist) {
	a, b := s.hoff[v], s.hoff[v+1]
	return s.hadj[a:b], s.hw[a:b]
}
