package kernel

import (
	"math/bits"

	"parapsp/internal/matrix"
)

// Word-parallel multi-source traversal primitives: the inner loops of the
// batch solvers in internal/core, which pack up to 64 concurrent searches
// into one uint64 lane word per vertex (bit b of word v = "search b has
// reached v"). One CSR adjacency sweep then advances all packed searches
// at once — the MS-BFS idea of Then et al. (VLDB 2014) — turning the
// per-source edge scan, the memory-bandwidth bound of batched APSP on
// unweighted power-law graphs, into a per-batch edge scan.
//
// There are two: OrLanes expands one vertex for the lanes that just
// discovered it, and RelaxLanes relaxes one weighted arc for every active
// lane. The rest of a BFS level (strip the lanes that already saw a
// vertex, write the level into the rows of the new ones) is a few word
// operations on that same vertex, so core's msbfs does it inline, in the
// one pass per level that also calls OrLanes.
//
// Like the min-plus kernels in kernel.go, both primitives are
// observationally identical to a scalar reference in ref.go, enforced by
// the differential and fuzz tests of this package.

// OrLanes ORs the lane word into next[u] for every u in adj: one vertex
// expansion of the level-synchronous sweep, making u a candidate of the
// next level in every lane set in lanes. Every target must be in range for
// next. lanes == 0 is a no-op (the caller skips those vertices anyway).
func OrLanes(next []uint64, adj []int32, lanes uint64) {
	for _, u := range adj {
		next[u] |= lanes
	}
}

// RelaxLanes relaxes one weighted arc for every search lane set in lanes:
// for each set bit b it computes nd = dv[b] + w in 64 bits and improves
// du[b] when nd is smaller, returning the lane set that improved (the bits
// the caller must re-activate on the target vertex). dv and du are the
// lane-major distance blocks of the arc's source and target vertex; both
// must be at least 64 wide in the lanes that can appear. The 64-bit sum
// cannot wrap, and one >= Inf never beats du[b], so Inf stays absorbing
// exactly as under matrix.AddSat.
func RelaxLanes(du, dv []matrix.Dist, w matrix.Dist, lanes uint64) uint64 {
	var out uint64
	for lanes != 0 {
		b := bits.TrailingZeros64(lanes)
		lanes &= lanes - 1
		if nd := uint64(dv[b]) + uint64(w); nd < uint64(du[b]) {
			du[b] = matrix.Dist(nd)
			out |= 1 << b
		}
	}
	return out
}
