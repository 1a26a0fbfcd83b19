package matrix

import (
	"math/rand"
	"testing"
)

// The blocked helpers must agree with the obvious scalar loops on every
// length straddling the block width, so the width constant can change
// without touching the tests.
var blockSizes = []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200}

func randDists(rng *rand.Rand, n int, density float64) []Dist {
	s := make([]Dist, n)
	for i := range s {
		if rng.Float64() < density {
			s[i] = Dist(rng.Intn(1 << 20))
		} else {
			s[i] = Inf
		}
	}
	return s
}

func TestEqualDistMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range blockSizes {
		a := randDists(rng, n, 0.5)
		b := append([]Dist(nil), a...)
		if !equalDist(a, b) {
			t.Fatalf("n=%d: equal copies reported unequal", n)
		}
		if n == 0 {
			continue
		}
		// Flip one entry at every position in turn.
		for i := 0; i < n; i++ {
			b[i]++
			if equalDist(a, b) {
				t.Fatalf("n=%d: difference at %d missed", n, i)
			}
			b[i] = a[i]
		}
	}
}

func TestCountFiniteMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range blockSizes {
		for _, density := range []float64{0, 0.3, 1} {
			s := randDists(rng, n, density)
			want := 0
			for _, v := range s {
				if v != Inf {
					want++
				}
			}
			if got := countFinite(s, n); got != want {
				t.Fatalf("n=%d density=%g: countFinite = %d, want %d", n, density, got, want)
			}
			// A limit stops the count: the result is min(count, limit).
			for _, limit := range []int{0, 1, want, want + 1, n/8 + 1} {
				if got := countFinite(s, limit); got != min(want, limit) {
					t.Fatalf("n=%d density=%g: countFinite(limit %d) = %d, want %d",
						n, density, limit, got, min(want, limit))
				}
			}
		}
	}
}

func TestChecksumDistMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range blockSizes {
		s := randDists(rng, n, 0.6)
		h := uint64(14695981039346656037)
		want := h
		for _, v := range s {
			want ^= uint64(v)
			want *= 1099511628211
		}
		if got := checksumDist(h, s); got != want {
			t.Fatalf("n=%d: checksumDist = %#x, want %#x", n, got, want)
		}
	}
}

func TestScanFinite(t *testing.T) {
	dense := make([]Dist, 64)
	cases := []struct {
		s              []Dist
		div            int
		lo, hi, finite int
	}{
		{nil, 1, 0, 0, 0},
		{[]Dist{Inf, Inf, Inf}, 1, 0, 0, 0},
		{[]Dist{5}, 1, 0, 1, 1},
		{[]Dist{Inf, 5, Inf}, 1, 1, 2, 1},
		{[]Dist{Inf, 5, Inf, 7, Inf, Inf}, 1, 1, 4, 2},
		{[]Dist{0, Inf, Inf, Inf, Inf, Inf, Inf, Inf, Inf, 3}, 1, 0, 10, 2},
		{[]Dist{0, MaxFinite}, 1, 0, 2, 2},
		// div 8 caps the count at span/8+1: a dense span of 64 stops at 9.
		{dense, 8, 0, 64, 9},
		{dense[:20], 8, 0, 20, 3},
		{[]Dist{0, Inf, Inf, Inf, Inf, Inf, Inf, Inf, Inf, 3}, 8, 0, 10, 2},
		{[]Dist{Inf, 5, Inf}, 8, 1, 2, 1},
	}
	for i, c := range cases {
		lo, hi, finite := ScanFinite(c.s, c.div)
		if lo != c.lo || hi != c.hi || finite != c.finite {
			t.Errorf("case %d: ScanFinite = (%d,%d,%d), want (%d,%d,%d)",
				i, lo, hi, finite, c.lo, c.hi, c.finite)
		}
	}
}

func TestScanFiniteRandomAgainstScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		s := randDists(rng, rng.Intn(120), 0.2+0.8*float64(trial%2))
		div := []int{1, 2, 8}[trial%3]
		lo, hi, finite := ScanFinite(s, div)
		wlo, whi, wfin := len(s), 0, 0
		for i, v := range s {
			if v != Inf {
				if i < wlo {
					wlo = i
				}
				whi = i + 1
				wfin++
			}
		}
		if wfin == 0 {
			wlo = 0
		}
		wfin = min(wfin, (whi-wlo)/div+1)
		if lo != wlo || hi != whi || finite != wfin {
			t.Fatalf("ScanFinite(div %d) = (%d,%d,%d), scalar (%d,%d,%d) on %v",
				div, lo, hi, finite, wlo, whi, wfin, s)
		}
	}
}
