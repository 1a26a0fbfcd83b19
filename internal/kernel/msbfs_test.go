package kernel

import (
	"math/rand"
	"testing"

	"parapsp/internal/matrix"
)

// randWords fills n lane words, density controlling the per-bit set
// probability so tests cover empty, sparse and saturated words.
func randWords(rng *rand.Rand, n int, density float64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		var w uint64
		for b := 0; b < 64; b++ {
			if rng.Float64() < density {
				w |= 1 << b
			}
		}
		out[i] = w
	}
	return out
}

func TestOrLanesMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		adjLen := rng.Intn(100)
		adj := make([]int32, adjLen)
		for i := range adj {
			adj[i] = int32(rng.Intn(n)) // duplicates on purpose: OR is idempotent
		}
		lanes := rng.Uint64()
		next := randWords(rng, n, 0.1)
		want := append([]uint64(nil), next...)
		OrLanesRef(want, adj, lanes)
		OrLanes(next, adj, lanes)
		for i := range want {
			if next[i] != want[i] {
				t.Fatalf("trial %d: next[%d] = %x, ref %x", trial, i, next[i], want[i])
			}
		}
	}
}

func TestRelaxLanesMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	hazard := []matrix.Dist{0, 1, 7, matrix.MaxFinite - 1, matrix.MaxFinite, matrix.Inf}
	draw := func() matrix.Dist {
		if rng.Intn(3) == 0 {
			return hazard[rng.Intn(len(hazard))]
		}
		return matrix.Dist(rng.Intn(1 << 20))
	}
	for trial := 0; trial < 200; trial++ {
		du := make([]matrix.Dist, 64)
		dv := make([]matrix.Dist, 64)
		for i := range du {
			du[i], dv[i] = draw(), draw()
		}
		w := matrix.Dist(1 + rng.Intn(1<<16))
		if rng.Intn(8) == 0 {
			w = matrix.MaxFinite // saturation boundary
		}
		lanes := rng.Uint64()
		wantDu := append([]matrix.Dist(nil), du...)
		wantOut := RelaxLanesRef(wantDu, dv, w, lanes)
		gotOut := RelaxLanes(du, dv, w, lanes)
		if gotOut != wantOut {
			t.Fatalf("trial %d: out = %x, ref %x (w=%d lanes=%x)", trial, gotOut, wantOut, w, lanes)
		}
		for i := range du {
			if du[i] != wantDu[i] {
				t.Fatalf("trial %d: du[%d] = %d, ref %d", trial, i, du[i], wantDu[i])
			}
		}
	}
}

func TestRelaxLanesUntouchedLanes(t *testing.T) {
	du := make([]matrix.Dist, 64)
	dv := make([]matrix.Dist, 64)
	for i := range du {
		du[i] = matrix.Inf
		dv[i] = 1
	}
	out := RelaxLanes(du, dv, 1, 0b101)
	if out != 0b101 {
		t.Fatalf("out = %b, want 101", out)
	}
	for i := range du {
		switch i {
		case 0, 2:
			if du[i] != 2 {
				t.Fatalf("du[%d] = %d, want 2", i, du[i])
			}
		default:
			if du[i] != matrix.Inf {
				t.Fatalf("du[%d] = %d, want Inf (lane not selected)", i, du[i])
			}
		}
	}
}
