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
//   - the sum base+x taken in 64 bits, where it cannot wrap, in place of
//     the Inf-skip branch, which mispredicts badly on rows with scattered
//     Inf holes: a sum >= Inf loses the min against any entry (at most
//     Inf), so Inf stays absorbing with no clamp;
//   - an unconditional min-store in the fold, whose improve-or-not
//     branch mispredicts on every other entry of a partly solved row;
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

// minPlus returns min(d, base+x), base being a distance the caller
// widened once. The 64-bit sum cannot wrap, and one >= Inf never beats
// d <= Inf, so the result always fits a Dist and equals the saturating
// reference's. The compiler lowers the min to a compare and a CMOV.
func minPlus(d matrix.Dist, base uint64, x matrix.Dist) matrix.Dist {
	return matrix.Dist(min(uint64(d), base+uint64(x)))
}

// FoldRow performs dst[j] = min(dst[j], base+src[j]) over all j.
// len(dst) must be at least len(src); only the first len(src) entries are
// folded. dst and src must not partially overlap (exact aliasing is
// harmless; the APSP solvers always pass distinct rows).
//
// Every step stores unconditionally: dst is the search's own row, hot in
// cache, and on power-law graphs about half of all folded entries improve
// (DESIGN.md §6), so a conditional store mispredicts on every other entry
// while the min-store is a compare and a conditional move. The body is unrolled
// by hand (the compiler does not unroll loops), leaving one
// length-checked iteration per blockWidth entries. Neither an Inf base
// nor an Inf entry needs a special case: its sum is at least Inf and
// loses the min.
func FoldRow(dst, src []matrix.Dist, base matrix.Dist) {
	dst = dst[:len(src)]
	b := uint64(base)
	i := 0
	for ; i+blockWidth <= len(src); i += blockWidth {
		s := (*[blockWidth]matrix.Dist)(src[i:])
		d := (*[blockWidth]matrix.Dist)(dst[i:])
		d[0] = minPlus(d[0], b, s[0])
		d[1] = minPlus(d[1], b, s[1])
		d[2] = minPlus(d[2], b, s[2])
		d[3] = minPlus(d[3], b, s[3])
		d[4] = minPlus(d[4], b, s[4])
		d[5] = minPlus(d[5], b, s[5])
		d[6] = minPlus(d[6], b, s[6])
		d[7] = minPlus(d[7], b, s[7])
	}
	for ; i < len(src); i++ {
		dst[i] = minPlus(dst[i], b, src[i])
	}
}

// FoldRowIndexed is FoldRow restricted to the positions in idx — the
// sparse variant for rows whose finite entries are few and scattered.
// Every index must be in range for both slices; positions outside idx are
// untouched, which is equivalent to FoldRow when src is Inf there.
func FoldRowIndexed(dst, src []matrix.Dist, base matrix.Dist, idx []int32) {
	b := uint64(base)
	for _, j := range idx {
		dst[j] = minPlus(dst[j], b, src[j])
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
// The candidate is summed in 64 bits as in FoldRow: a sum >= Inf never
// beats an entry, so one that does fits a Dist.
func RelaxWeighted(row []matrix.Dist, adj []int32, w []matrix.Dist, base matrix.Dist, improved []int32) []int32 {
	w = w[:len(adj)] // one bounds check up front instead of one per edge
	b := uint64(base)
	for i, v := range adj {
		if nd := b + uint64(w[i]); nd < uint64(row[v]) {
			row[v] = matrix.Dist(nd)
			improved = append(improved, v)
		}
	}
	return improved
}
