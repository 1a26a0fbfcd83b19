package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"parapsp/internal/matrix"
)

// randRow builds a length-n row where each entry is finite with
// probability density; finite values are drawn from the interesting
// range, including saturation-boundary values near Inf.
func randRow(rng *rand.Rand, n int, density float64) []matrix.Dist {
	row := make([]matrix.Dist, n)
	for i := range row {
		if rng.Float64() >= density {
			row[i] = matrix.Inf
			continue
		}
		switch rng.Intn(8) {
		case 0:
			row[i] = 0
		case 1:
			row[i] = matrix.MaxFinite
		case 2:
			row[i] = matrix.MaxFinite - matrix.Dist(rng.Intn(16))
		default:
			row[i] = matrix.Dist(rng.Intn(1 << 20))
		}
	}
	return row
}

func randBase(rng *rand.Rand) matrix.Dist {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return matrix.Inf
	case 2:
		return matrix.MaxFinite
	case 3:
		return matrix.MaxFinite - matrix.Dist(rng.Intn(16))
	default:
		return matrix.Dist(rng.Intn(1 << 20))
	}
}

func finiteIndex(src []matrix.Dist) []int32 {
	var idx []int32
	for j, v := range src {
		if v != matrix.Inf {
			idx = append(idx, int32(j))
		}
	}
	return idx
}

func distsEqual(t *testing.T, what string, got, want []matrix.Dist) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// foldBases are the bases every fold test covers: the zero offset, the
// smallest step, the largest finite distance (every finite entry but 0
// saturates), and Inf (every sum saturates).
var foldBases = []matrix.Dist{0, 1, matrix.Inf - 1, matrix.Inf}

// TestFoldRowMatchesRef is the core differential test: FoldRow and
// FoldRowIndexed must leave exactly the dst contents of the scalar
// reference, at every length from 0 to 40 (each tail of the 8-wide
// unroll, five times over) and a few longer rows, over densities from
// all-Inf to all-finite, with sources rich in Inf and near-Inf entries,
// and at the boundary bases plus random ones.
func TestFoldRowMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{64, 100, 257}
	for n := 0; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	densities := []float64{0, 0.02, 0.3, 0.7, 1}
	for _, n := range sizes {
		for _, density := range densities {
			for trial := 0; trial < 8; trial++ {
				src := randRow(rng, n, density)
				dst := randRow(rng, n, 0.5)
				bases := append(foldBases, randBase(rng))
				for _, base := range bases {
					want := append([]matrix.Dist(nil), dst...)
					FoldRowRef(want, src, base)

					got := append([]matrix.Dist(nil), dst...)
					FoldRow(got, src, base)
					distsEqual(t, fmt.Sprintf("n=%d density=%g base=%d: FoldRow", n, density, base), got, want)

					got = append(got[:0], dst...)
					FoldRowIndexed(got, src, base, finiteIndex(src))
					distsEqual(t, fmt.Sprintf("n=%d density=%g base=%d: FoldRowIndexed", n, density, base), got, want)
				}
			}
		}
	}
}

// TestFoldRowSpanEquivalence checks the span-restricted call pattern the
// solver uses: folding only [lo,hi) subslices is identical to a full fold
// when everything outside the span is Inf.
func TestFoldRowSpanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(120)
		src := make([]matrix.Dist, n)
		for i := range src {
			src[i] = matrix.Inf
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		for i := lo; i < hi; i++ {
			if rng.Intn(3) > 0 {
				src[i] = matrix.Dist(rng.Intn(1000))
			}
		}
		dst := randRow(rng, n, 0.6)
		base := matrix.Dist(rng.Intn(1000))

		want := append([]matrix.Dist(nil), dst...)
		FoldRowRef(want, src, base)
		got := append([]matrix.Dist(nil), dst...)
		FoldRow(got[lo:hi], src[lo:hi], base)
		distsEqual(t, "span fold", got, want)
	}
}

func TestFoldRowSaturation(t *testing.T) {
	// A finite base plus a large finite entry must clamp to Inf, never
	// wrap to a spuriously short distance.
	src := []matrix.Dist{matrix.MaxFinite, matrix.MaxFinite - 1, 5, matrix.Inf}
	dst := []matrix.Dist{matrix.Inf, matrix.Inf, matrix.Inf, matrix.Inf}
	FoldRow(dst, src, 10)
	if dst[0] != matrix.Inf || dst[1] != matrix.Inf {
		t.Errorf("saturating sums = %d, %d, want Inf", dst[0], dst[1])
	}
	if dst[2] != 15 {
		t.Errorf("finite sum = %d, want 15", dst[2])
	}
	if dst[3] != matrix.Inf {
		t.Errorf("Inf entry folded to %d", dst[3])
	}
	// Sum landing exactly on Inf clamps too (Inf is a sentinel, not a
	// representable distance).
	dst2 := []matrix.Dist{matrix.Inf - 1}
	if FoldRow(dst2, []matrix.Dist{matrix.MaxFinite}, 1); dst2[0] != matrix.Inf-1 {
		t.Errorf("exact-Inf sum improved dst: %d", dst2[0])
	}
}

func TestFoldRowInfBase(t *testing.T) {
	// Every length through two unrolled blocks and a tail: the store is
	// unconditional, so an Inf base must leave each entry as it was.
	for n := 0; n <= 17; n++ {
		src := make([]matrix.Dist, n)
		dst := make([]matrix.Dist, n)
		for i := range src {
			src[i] = matrix.Dist(i % 3)
			dst[i] = 9
		}
		want := append([]matrix.Dist(nil), dst...)
		FoldRow(dst, src, matrix.Inf)
		distsEqual(t, "Inf base", dst, want)
		FoldRowIndexed(dst, src, matrix.Inf, finiteIndex(src))
		distsEqual(t, "Inf base indexed", dst, want)
	}
}

func TestFoldRowShorterSrc(t *testing.T) {
	// len(src) < len(dst): only the prefix is folded.
	dst := []matrix.Dist{10, 10, 10}
	FoldRow(dst, []matrix.Dist{1}, 2)
	distsEqual(t, "short src", dst, []matrix.Dist{3, 10, 10})
}

func TestRelaxMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		deg := rng.Intn(2 * n)
		adj := make([]int32, deg)
		for i := range adj {
			adj[i] = int32(rng.Intn(n))
		}
		w := make([]matrix.Dist, deg)
		for i := range w {
			w[i] = 1 + matrix.Dist(rng.Intn(100))
		}
		row := randRow(rng, n, 0.7)
		base := randBase(rng)

		wantRow := append([]matrix.Dist(nil), row...)
		wantImp := RelaxWeightedRef(wantRow, adj, w, base, nil)
		gotRow := append([]matrix.Dist(nil), row...)
		gotImp := RelaxWeighted(gotRow, adj, w, base, nil)
		distsEqual(t, "RelaxWeighted row", gotRow, wantRow)
		if len(gotImp) != len(wantImp) {
			t.Fatalf("RelaxWeighted improved %d, ref %d", len(gotImp), len(wantImp))
		}
		for i := range wantImp {
			if gotImp[i] != wantImp[i] {
				t.Fatalf("RelaxWeighted improved[%d] = %d, ref %d", i, gotImp[i], wantImp[i])
			}
		}

		nd := matrix.AddSat(base, 1)
		wantRow = append(wantRow[:0], row...)
		wantImp = RelaxUnweightedRef(wantRow, adj, nd, wantImp[:0])
		gotRow = append(gotRow[:0], row...)
		gotImp = RelaxUnweighted(gotRow, adj, nd, gotImp[:0])
		distsEqual(t, "RelaxUnweighted row", gotRow, wantRow)
		if len(gotImp) != len(wantImp) {
			t.Fatalf("RelaxUnweighted improved %d, ref %d", len(gotImp), len(wantImp))
		}
	}
}

func TestRelaxParallelEdgeDuplicates(t *testing.T) {
	// Two parallel edges to the same vertex, each improving: the vertex
	// appears once per improvement, exactly like the scalar loop.
	row := []matrix.Dist{0, 100}
	imp := RelaxWeighted(row, []int32{1, 1}, []matrix.Dist{50, 20}, 0, nil)
	if len(imp) != 2 || imp[0] != 1 || imp[1] != 1 {
		t.Errorf("improved = %v, want [1 1]", imp)
	}
	if row[1] != 20 {
		t.Errorf("row[1] = %d, want 20", row[1])
	}
}
