package matrix

import (
	"errors"
	"fmt"
)

// Matrix is a dense n-by-n distance matrix backed by one contiguous
// allocation. Row i holds the single-source shortest path distances from
// vertex i. The flat layout matters for the paper's algorithms: the modified
// Dijkstra procedure streams whole rows (the "row combine" step), so rows
// must be cache-friendly contiguous slices.
//
// Concurrency contract: distinct rows may be written by distinct goroutines
// concurrently. A row may be read by other goroutines only after its owner
// has published completion (see internal/core's flag array); the Matrix
// itself performs no synchronization.
type Matrix struct {
	n    int
	data []Dist
}

// ErrDimension is returned for operations on matrices of mismatched size.
var ErrDimension = errors.New("matrix: dimension mismatch")

// New returns an n×n matrix with every entry set to Inf.
// It panics if n is negative.
func New(n int) *Matrix {
	m := NewZero(n)
	m.Fill(Inf)
	return m
}

// NewZero returns an n×n matrix with every entry zero, from the
// allocation's own zeroing. That is free only for fresh memory: memory
// the runtime reuses, such as the matrix an earlier solve freed, is
// cleared serially on the calling goroutine (about 2.5 ms for the
// 16 MB matrix of n=2000 on a 2-vCPU x86-64 host). The APSP solvers
// start from it all the same, since each search initializes its own row
// and no Inf pass over the entries is needed.
func NewZero(n int) *Matrix {
	if n < 0 {
		panic("matrix: negative dimension")
	}
	return &Matrix{n: n, data: make([]Dist, n*n)}
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.n }

// Row returns the i-th row as a mutable slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []Dist {
	return m.data[i*m.n : (i+1)*m.n : (i+1)*m.n]
}

// At returns the entry at row i, column j.
func (m *Matrix) At(i, j int) Dist { return m.data[i*m.n+j] }

// Set stores d at row i, column j.
func (m *Matrix) Set(i, j int, d Dist) { m.data[i*m.n+j] = d }

// Fill sets every entry to d.
func (m *Matrix) Fill(d Dist) { FillDist(m.data, d) }

// InitAPSP prepares the matrix for an APSP run: all entries Inf except the
// diagonal, which is zero. This is lines 2-4 of the paper's Algorithm 2.
func (m *Matrix) InitAPSP() {
	m.Fill(Inf)
	for i := 0; i < m.n; i++ {
		m.data[i*m.n+i] = 0
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{n: m.n, data: make([]Dist, len(m.data))}
	copy(c.data, m.data)
	return c
}

// Equal reports whether m and o have identical dimensions and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.n != o.n {
		return false
	}
	return equalDist(m.data, o.data)
}

// Diff returns up to max differing (row, col) positions between m and o,
// or ErrDimension if the sizes differ. It is a debugging aid used by the
// cross-validation tests to report where two algorithms disagree.
func (m *Matrix) Diff(o *Matrix, max int) ([][2]int, error) {
	if m.n != o.n {
		return nil, ErrDimension
	}
	var out [][2]int
	for i := 0; i < m.n && len(out) < max; i++ {
		ri, ro := m.Row(i), o.Row(i)
		for j := range ri {
			if ri[j] != ro[j] {
				out = append(out, [2]int{i, j})
				if len(out) == max {
					break
				}
			}
		}
	}
	return out, nil
}

// MemBytes returns the size in bytes of the matrix payload. The paper's
// experiments are memory-bound (sx-superuser needs >=160 GB); callers use
// this to refuse runs that would not fit in RAM.
func (m *Matrix) MemBytes() uint64 {
	return uint64(len(m.data)) * 4
}

// EstimateMemBytes returns the payload size of an n×n matrix without
// allocating it.
func EstimateMemBytes(n int) uint64 {
	return uint64(n) * uint64(n) * 4
}

// CountFinite returns the number of finite (reachable) entries, including
// the diagonal. Analysis code uses it for reachability statistics.
func (m *Matrix) CountFinite() int {
	return countFinite(m.data, len(m.data))
}

// Checksum returns an order-dependent FNV-1a style hash of the entries.
// Two equal matrices always have equal checksums; the benchmark harness
// logs checksums to demonstrate that every algorithm computed the same
// solution without storing full matrices.
func (m *Matrix) Checksum() uint64 {
	const offset = 14695981039346656037
	return checksumDist(offset, m.data)
}

// ChecksumDists is Checksum over a bare distance slice, for row sets that
// live outside a Matrix (subset solves): the same FNV-1a chain, so a
// subset row checksums identically to the matching matrix row region.
func ChecksumDists(s []Dist) uint64 {
	const offset = 14695981039346656037
	return checksumDist(offset, s)
}

// String renders small matrices for debugging; large matrices are
// summarized to avoid accidental multi-gigabyte strings.
func (m *Matrix) String() string {
	if m.n > 16 {
		return fmt.Sprintf("matrix.Matrix(n=%d, %d finite)", m.n, m.CountFinite())
	}
	s := ""
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if j > 0 {
				s += " "
			}
			if v := m.At(i, j); v == Inf {
				s += "inf"
			} else {
				s += fmt.Sprint(v)
			}
		}
		s += "\n"
	}
	return s
}
