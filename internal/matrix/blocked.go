package matrix

// Blocked iteration helpers: every whole-row scan in this package (and the
// min-plus kernels in internal/kernel, which follow the same pattern) walks
// the data in fixed-width blocks through a slice-to-array-pointer
// conversion. The conversion proves the block's length to the compiler, so
// the per-element bounds checks disappear and the inner loop is eligible
// for unrolling and wide loads. On the row sizes the APSP algorithms use
// (thousands of entries) this is the difference between a bounds-checked
// scalar loop and a straight-line register loop.

// blockWidth is the fixed element count of one block. Eight 4-byte Dist
// entries are one 32-byte chunk — half a cache line, and the width the Go
// compiler unrolls cleanly on amd64 and arm64.
const blockWidth = 8

// equalDist reports whether a and b are element-wise identical. Blocks are
// compared as [blockWidth]Dist array values, which the compiler lowers to
// wide memory compares.
func equalDist(a, b []Dist) bool {
	if len(a) != len(b) {
		return false
	}
	i := 0
	for ; i+blockWidth <= len(a); i += blockWidth {
		if *(*[blockWidth]Dist)(a[i:]) != *(*[blockWidth]Dist)(b[i:]) {
			return false
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// countFinite returns the number of non-Inf entries of s, capped at
// limit: the count stops at the first block that reaches limit, so a
// caller that only needs to know whether s holds more than limit-1 finite
// entries does not scan the rest.
func countFinite(s []Dist, limit int) int {
	c := 0
	i := 0
	for ; i+blockWidth <= len(s); i += blockWidth {
		b := (*[blockWidth]Dist)(s[i:])
		for j := 0; j < blockWidth; j++ {
			if b[j] != Inf {
				c++
			}
		}
		if c >= limit {
			return limit
		}
	}
	for ; i < len(s); i++ {
		if s[i] != Inf {
			c++
		}
	}
	return min(c, limit)
}

// checksumDist folds s into an FNV-1a style hash state h. The hash chain is
// inherently sequential, but the blocked walk still removes the per-element
// bounds checks.
func checksumDist(h uint64, s []Dist) uint64 {
	const prime = 1099511628211
	i := 0
	for ; i+blockWidth <= len(s); i += blockWidth {
		b := (*[blockWidth]Dist)(s[i:])
		for j := 0; j < blockWidth; j++ {
			h ^= uint64(b[j])
			h *= prime
		}
	}
	for ; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// FillDist sets every entry of s to d. Doubling copy: O(log len) calls
// into runtime memmove instead of a per-element loop; this is the fastest
// portable fill for large rows.
func FillDist(s []Dist, d Dist) {
	if len(s) == 0 {
		return
	}
	s[0] = d
	for filled := 1; filled < len(s); filled *= 2 {
		copy(s[filled:], s[:filled])
	}
}

// ScanFinite returns the finite span of s and its population, counted
// only as far as a sparseness test needs: every non-Inf entry lies in
// [lo, hi), and finite is their number capped at (hi-lo)/div+1, so
// finite <= (hi-lo)/div tells whether they populate at most 1/div of the
// span, and a dense span is counted for about 1/div of its length, not
// all of it. div must be positive; div 1 counts them all. An all-Inf
// slice yields lo == hi == finite == 0. The solvers' fold views
// (internal/core) use the result to fold only the finite part of
// mostly-Inf rows.
func ScanFinite(s []Dist, div int) (lo, hi, finite int) {
	lo = 0
	for lo < len(s) && s[lo] == Inf {
		lo++
	}
	if lo == len(s) {
		return 0, 0, 0
	}
	hi = len(s)
	for s[hi-1] == Inf {
		hi--
	}
	// Count inside the span only; everything outside is Inf by construction.
	return lo, hi, countFinite(s[lo:hi], (hi-lo)/div+1)
}
