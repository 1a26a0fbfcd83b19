// Package kernel holds the tight inner loops of the APSP hot path: the
// min-plus row fold D[s,v] <- min(D[s,v], D[s,t]+D[t,v]) of Algorithm 1,
// the edge-relaxation sweep, and the two lane-word loops of the
// multi-source batch engines (msbfs.go: OrLanes, RelaxLanes). Profiling
// shows ParAPSP spends most of its time in the fold and the relaxation on
// power-law graphs, so they are written the way the Go compiler
// optimizes best:
//
//   - fixed-width blocks via slice-to-array-pointer conversions, which
//     prove lengths to the compiler and eliminate per-element bounds
//     checks (the same pattern as internal/matrix's blocked helpers);
//   - a branchless saturating add (wrap-detect + conditional move)
//     instead of the Inf-skip branch, which mispredicts badly on rows
//     with scattered Inf holes, and an unconditional min-store in the
//     fold, whose improve-or-not branch mispredicts just as badly;
//   - a sparse gather variant driven by the finite-index list of
//     internal/core's fold views, so folding a mostly-Inf row touches
//     only its finite entries.
//
// Every kernel is observationally identical to its scalar reference in
// ref.go; the differential and fuzz tests in this package, plus the
// checksum-equality cross-validation of all six algorithms, enforce that
// the paper-fidelity contract is untouched.
package kernel

import "parapsp/internal/matrix"

// blockWidth is the unroll width of the blocked kernels: eight 4-byte
// Dist entries, a 32-byte chunk.
const blockWidth = 8

// addSat is the branchless saturating add: base + v clamped to Inf.
// Correctness of the wrap test: if the 32-bit sum does not wrap it is
// >= v, so nd < v exactly when the true sum exceeded MaxUint32; the only
// unwrapped sum that must clamp is MaxUint32 == Inf itself, which already
// equals Inf. The compiler lowers the conditional to a CMOV, so the loop
// body has no data-dependent branch.
func addSat(base, v matrix.Dist) matrix.Dist {
	nd := base + v
	if nd < v {
		nd = matrix.Inf
	}
	return nd
}

// FoldRow performs dst[j] = min(dst[j], sat(base+src[j])) over all j.
// len(dst) must be at least len(src); only the first len(src) entries are
// folded. dst and src must not partially overlap (exact aliasing is
// harmless; the APSP solvers always pass distinct rows).
//
// Every step stores unconditionally: dst is the search's own row, hot in
// cache, and on power-law graphs about half of all folded entries improve
// (DESIGN.md §6), so a conditional store mispredicts on every other entry
// while the min-store is a compare and a conditional move. The body is unrolled
// by hand (the compiler does not unroll loops), leaving one
// length-checked iteration per blockWidth entries. An Inf base needs no
// special case: addSat(Inf, v) is Inf for every v.
func FoldRow(dst, src []matrix.Dist, base matrix.Dist) {
	dst = dst[:len(src)]
	i := 0
	for ; i+blockWidth <= len(src); i += blockWidth {
		s := (*[blockWidth]matrix.Dist)(src[i:])
		d := (*[blockWidth]matrix.Dist)(dst[i:])
		d[0] = min(d[0], addSat(base, s[0]))
		d[1] = min(d[1], addSat(base, s[1]))
		d[2] = min(d[2], addSat(base, s[2]))
		d[3] = min(d[3], addSat(base, s[3]))
		d[4] = min(d[4], addSat(base, s[4]))
		d[5] = min(d[5], addSat(base, s[5]))
		d[6] = min(d[6], addSat(base, s[6]))
		d[7] = min(d[7], addSat(base, s[7]))
	}
	for ; i < len(src); i++ {
		dst[i] = min(dst[i], addSat(base, src[i]))
	}
}

// FoldRowIndexed is FoldRow restricted to the positions in idx — the
// sparse variant for rows whose finite entries are few and scattered.
// Every index must be in range for both slices; positions outside idx are
// untouched, which is equivalent to FoldRow when src is Inf there.
func FoldRowIndexed(dst, src []matrix.Dist, base matrix.Dist, idx []int32) {
	for _, j := range idx {
		dst[j] = min(dst[j], addSat(base, src[j]))
	}
}

// RelaxUnweighted relaxes the unweighted edges t->adj[i] against row: a
// neighbor whose entry exceeds nd (the candidate distance through t) is
// improved and appended to improved. The queue-membership bookkeeping
// stays with the caller so this loop carries no bitmap traffic.
func RelaxUnweighted(row []matrix.Dist, adj []int32, nd matrix.Dist, improved []int32) []int32 {
	for _, v := range adj {
		if nd < row[v] {
			row[v] = nd
			improved = append(improved, v)
		}
	}
	return improved
}

// RelaxWeighted relaxes the weighted edges t->adj[i] with weights w
// against row, base being the distance to t. Improved neighbors are
// appended to improved; a neighbor improved through two parallel edges in
// the same call appears once per improvement, matching the scalar loop.
func RelaxWeighted(row []matrix.Dist, adj []int32, w []matrix.Dist, base matrix.Dist, improved []int32) []int32 {
	w = w[:len(adj)] // one bounds check up front instead of one per edge
	for i, v := range adj {
		if nd := addSat(base, w[i]); nd < row[v] {
			row[v] = nd
			improved = append(improved, v)
		}
	}
	return improved
}
