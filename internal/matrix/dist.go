// Package matrix provides the dense all-pairs distance matrix used by every
// APSP algorithm in this repository, together with the saturating distance
// arithmetic the algorithms rely on.
//
// Distances are stored as 32-bit unsigned integers. The paper's workloads are
// unweighted (hop counts) or small-integer weighted real-world graphs, for
// which 32 bits are ample: the largest finite distance representable is
// about 4.29e9, while path lengths in the tested graphs stay far below 1e6.
// Using 4 bytes per entry halves the memory footprint relative to float64 and
// is what makes the paper's O(n^2) storage feasible at interesting scales.
//
// A Matrix is plain storage with no per-row metadata. The APSP solvers
// allocate it with NewZero and set each row up on the worker that solves
// it; the finite-span views their folds dispatch on are per solve and
// live in internal/core, built only for the rows a search folds. The
// distributed simulation and Floyd-Warshall (with InitAPSP) use NewZero
// too; New serves the repeated-SSSP baselines.
package matrix

import "math"

// Dist is the distance type shared by the whole repository.
// The maximum value is reserved as the "unreachable" sentinel Inf.
type Dist uint32

// Inf is the distance between vertices with no connecting path.
// It behaves like +infinity under AddSat and Less.
const Inf Dist = math.MaxUint32

// MaxFinite is the largest distance value that still denotes a real path.
const MaxFinite Dist = Inf - 1

// AddSat returns a+b saturating at Inf. If either operand is Inf the result
// is Inf, matching +infinity semantics; finite sums that would overflow the
// 32-bit range also clamp to Inf rather than wrapping around, which keeps
// relaxation monotone (a wrapped sum could look spuriously short).
func AddSat(a, b Dist) Dist {
	s := uint64(a) + uint64(b)
	if s >= uint64(Inf) {
		return Inf
	}
	return Dist(s)
}

// IsInf reports whether d is the unreachable sentinel.
func IsInf(d Dist) bool { return d == Inf }
