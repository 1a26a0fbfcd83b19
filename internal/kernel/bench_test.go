package kernel

import (
	"math/rand"
	"testing"

	"parapsp/internal/matrix"
)

// The fold microbenchmarks measure the scan of the hot path. The plain
// cases sweep completed rows against a destination row that is already
// small, so no entry improves; the Improve cases below fold into a partly
// solved row. FoldRow's min-store costs the same either way; the
// reference's conditional store would add a misprediction per improving
// entry, which DESIGN.md §6 measures separately. Each iteration folds a
// different source row, exactly as the solver does when it drains a fold
// batch; a single reused row would let the branch predictor memorize its
// Inf pattern and hide the misprediction cost that makes the scalar loop
// slow in practice. Row shapes:
//
//   Dense    — every entry finite: a completed row of a connected graph.
//   PowerLaw — ~30% finite, scattered: a row published mid-run, where the
//              Inf-skip branch of the scalar loop mispredicts hardest.
//   Sparse   — ~2% finite: a small component's row, where the indexed
//              gather kernel touches almost nothing.

const (
	benchRowLen = 4096
	benchRowRot = 16 // distinct source rows cycled per benchmark
)

type benchRow struct {
	src []matrix.Dist
	idx []int32
}

func benchRows(density float64) (dst []matrix.Dist, rows []benchRow) {
	rng := rand.New(rand.NewSource(42))
	dst = make([]matrix.Dist, benchRowLen)
	for i := range dst {
		dst[i] = matrix.Dist(1 + rng.Intn(4)) // already small: folds no-op
	}
	rows = make([]benchRow, benchRowRot)
	for k := range rows {
		src := make([]matrix.Dist, benchRowLen)
		for i := range src {
			if rng.Float64() < density {
				src[i] = matrix.Dist(1 + rng.Intn(1000))
			} else {
				src[i] = matrix.Inf
			}
		}
		rows[k] = benchRow{src: src, idx: finiteIndex(src)}
	}
	return dst, rows
}

func benchFold(b *testing.B, density float64, fold func(dst []matrix.Dist, r benchRow)) {
	dst, rows := benchRows(density)
	b.SetBytes(benchRowLen * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fold(dst, rows[i%benchRowRot])
	}
}

func BenchmarkFoldRowDenseRef(b *testing.B) {
	benchFold(b, 1.0, func(d []matrix.Dist, r benchRow) { FoldRowRef(d, r.src, 7) })
}

func BenchmarkFoldRowDense(b *testing.B) {
	benchFold(b, 1.0, func(d []matrix.Dist, r benchRow) { FoldRow(d, r.src, 7) })
}

func BenchmarkFoldRowPowerLawRef(b *testing.B) {
	benchFold(b, 0.3, func(d []matrix.Dist, r benchRow) { FoldRowRef(d, r.src, 7) })
}

func BenchmarkFoldRowPowerLaw(b *testing.B) {
	benchFold(b, 0.3, func(d []matrix.Dist, r benchRow) { FoldRow(d, r.src, 7) })
}

func BenchmarkFoldRowSparseRef(b *testing.B) {
	benchFold(b, 0.02, func(d []matrix.Dist, r benchRow) { FoldRowRef(d, r.src, 7) })
}

func BenchmarkFoldRowSparseIndexed(b *testing.B) {
	benchFold(b, 0.02, func(d []matrix.Dist, r benchRow) { FoldRowIndexed(d, r.src, 7, r.idx) })
}

// The Improve cases fold into a partly solved row, the regime real folds
// run in (on the fixed benchmark's power-law graph, 5.65 M of 9.77 M
// folded entries improve): each destination entry is still Inf with
// probability 1/2 and already small otherwise, so about half of the
// finite source entries improve — half of a Dense row, 15% of a PowerLaw
// one. A fold leaves its destination smaller, so every iteration first
// restores it from the template with copy, a 16 KiB memmove that
// BenchmarkFoldRowRestore times alone (about 0.23 µs on a 2-vCPU x86-64
// host, some 3% of a dense fold there); subtract it to compare with the
// no-improve cases.

func benchImproveTemplate() []matrix.Dist {
	rng := rand.New(rand.NewSource(44))
	tmpl := make([]matrix.Dist, benchRowLen)
	for i := range tmpl {
		if rng.Intn(2) == 0 {
			tmpl[i] = matrix.Inf
		} else {
			tmpl[i] = matrix.Dist(1 + rng.Intn(4))
		}
	}
	return tmpl
}

func benchFoldImprove(b *testing.B, density float64, fold func(dst []matrix.Dist, r benchRow)) {
	dst, rows := benchRows(density)
	tmpl := benchImproveTemplate()
	b.SetBytes(benchRowLen * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst, tmpl)
		fold(dst, rows[i%benchRowRot])
	}
}

func BenchmarkFoldRowRestore(b *testing.B) {
	dst := make([]matrix.Dist, benchRowLen)
	tmpl := benchImproveTemplate()
	b.SetBytes(benchRowLen * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst, tmpl)
	}
}

func BenchmarkFoldRowDenseImproveRef(b *testing.B) {
	benchFoldImprove(b, 1.0, func(d []matrix.Dist, r benchRow) { FoldRowRef(d, r.src, 7) })
}

func BenchmarkFoldRowDenseImprove(b *testing.B) {
	benchFoldImprove(b, 1.0, func(d []matrix.Dist, r benchRow) { FoldRow(d, r.src, 7) })
}

func BenchmarkFoldRowPowerLawImproveRef(b *testing.B) {
	benchFoldImprove(b, 0.3, func(d []matrix.Dist, r benchRow) { FoldRowRef(d, r.src, 7) })
}

func BenchmarkFoldRowPowerLawImprove(b *testing.B) {
	benchFoldImprove(b, 0.3, func(d []matrix.Dist, r benchRow) { FoldRow(d, r.src, 7) })
}

func benchRelaxSetup() (row []matrix.Dist, adj []int32, w []matrix.Dist) {
	rng := rand.New(rand.NewSource(43))
	row = make([]matrix.Dist, benchRowLen)
	for i := range row {
		row[i] = matrix.Dist(1 + rng.Intn(4))
	}
	adj = make([]int32, 256)
	w = make([]matrix.Dist, len(adj))
	for i := range adj {
		adj[i] = int32(rng.Intn(benchRowLen))
		w[i] = 1 + matrix.Dist(rng.Intn(16))
	}
	return row, adj, w
}

func BenchmarkRelaxUnweighted(b *testing.B) {
	row, adj, _ := benchRelaxSetup()
	var imp []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imp = RelaxUnweighted(row, adj, 2, imp[:0])
	}
	_ = imp
}

func BenchmarkRelaxWeighted(b *testing.B) {
	row, adj, w := benchRelaxSetup()
	var imp []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imp = RelaxWeighted(row, adj, w, 2, imp[:0])
	}
	_ = imp
}
