package kernel

import "parapsp/internal/matrix"

// Scalar reference implementations: the loops exactly as the seed solver
// wrote them (Inf-skip branch, matrix.AddSat per element). They exist so
// the differential and fuzz tests can assert the blocked kernels are
// observationally identical, and so the microbenchmarks can report the
// kernel speedup against the code they replaced. They must stay
// straightforward — do not optimize them.

// FoldRowRef is the scalar reference for FoldRow and, over a row that is
// Inf outside the index list, for FoldRowIndexed.
func FoldRowRef(dst, src []matrix.Dist, base matrix.Dist) {
	dst = dst[:len(src)]
	for j, v := range src {
		if v == matrix.Inf {
			continue
		}
		if nd := matrix.AddSat(base, v); nd < dst[j] {
			dst[j] = nd
		}
	}
}

// RelaxUnweightedRef is the scalar reference for RelaxUnweighted.
func RelaxUnweightedRef(row []matrix.Dist, adj []int32, nd matrix.Dist, improved []int32) []int32 {
	for _, v := range adj {
		if nd < row[v] {
			row[v] = nd
			improved = append(improved, v)
		}
	}
	return improved
}

// RelaxWeightedRef is the scalar reference for RelaxWeighted.
func RelaxWeightedRef(row []matrix.Dist, adj []int32, w []matrix.Dist, base matrix.Dist, improved []int32) []int32 {
	for i, v := range adj {
		if nd := matrix.AddSat(base, w[i]); nd < row[v] {
			row[v] = nd
			improved = append(improved, v)
		}
	}
	return improved
}

// OrLanesRef is the scalar reference for OrLanes.
func OrLanesRef(next []uint64, adj []int32, lanes uint64) {
	for _, u := range adj {
		next[u] = next[u] | lanes
	}
}

// RelaxLanesRef is the scalar reference for RelaxLanes: the bit-test loop
// with matrix.AddSat per lane.
func RelaxLanesRef(du, dv []matrix.Dist, w matrix.Dist, lanes uint64) uint64 {
	var out uint64
	for b := 0; b < 64; b++ {
		if lanes&(1<<b) == 0 {
			continue
		}
		if nd := matrix.AddSat(dv[b], w); nd < du[b] {
			du[b] = nd
			out |= 1 << b
		}
	}
	return out
}
