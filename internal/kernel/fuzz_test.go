package kernel

import (
	"bytes"
	"encoding/binary"
	"testing"

	"parapsp/internal/matrix"
)

// FuzzFoldRow asserts FoldRow == FoldRowRef on arbitrary rows decoded
// from the fuzzer's byte stream. The decoder biases entries toward the
// values where the branchless saturating add could diverge from
// matrix.AddSat: Inf, MaxFinite, and sums that land exactly on or just
// past Inf.
func FuzzFoldRow(f *testing.F) {
	// Seeds: all-Inf, all-finite, saturation-boundary mixes.
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint32(1))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}, uint32(1<<31))
	f.Add([]byte{0xFE, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00}, uint32(0xFFFFFFFE))
	// One unrolled block plus a tail, at an Inf base and at base 1.
	f.Add(bytes.Repeat([]byte{0xF9, 0xFF, 0xFF, 0xFF, 0x0A, 0x00, 0x00, 0x00}, 11), uint32(0xFFFFFFFF))
	f.Add(bytes.Repeat([]byte{0x09, 0xFF, 0xFF, 0xFF, 0x13, 0x00, 0x00, 0x00}, 17), uint32(1))
	f.Fuzz(func(t *testing.T, data []byte, base32 uint32) {
		base := matrix.Dist(base32)
		n := len(data) / 8
		src := make([]matrix.Dist, n)
		dst := make([]matrix.Dist, n)
		for i := 0; i < n; i++ {
			src[i] = decodeDist(binary.LittleEndian.Uint32(data[i*8:]))
			dst[i] = decodeDist(binary.LittleEndian.Uint32(data[i*8+4:]))
		}

		want := append([]matrix.Dist(nil), dst...)
		FoldRowRef(want, src, base)

		got := append([]matrix.Dist(nil), dst...)
		FoldRow(got, src, base)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("FoldRow dst[%d] = %d, ref = %d (base=%d src=%d)", i, got[i], want[i], base, src[i])
			}
		}

		// The indexed kernel over the finite positions must agree too.
		got = append(got[:0], dst...)
		FoldRowIndexed(got, src, base, finiteIndex(src))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("FoldRowIndexed dst[%d] = %d, ref = %d", i, got[i], want[i])
			}
		}
	})
}

// decodeDist maps a raw fuzz word onto the distance domain with the
// hazardous values over-represented: one in four words becomes Inf, one
// in eight a near-MaxFinite saturation-boundary value.
func decodeDist(raw uint32) matrix.Dist {
	switch raw % 8 {
	case 0, 4:
		return matrix.Inf
	case 1:
		return matrix.MaxFinite - matrix.Dist(raw%16)
	default:
		return matrix.Dist(raw / 8)
	}
}

// FuzzRelaxLanes asserts RelaxLanes == RelaxLanesRef on arbitrary
// lane-major blocks, with the decoder biasing distances toward the
// saturation boundary where the branchless add could diverge.
func FuzzRelaxLanes(f *testing.F) {
	f.Add([]byte{}, uint32(1), uint64(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0}, uint32(1), ^uint64(0))
	f.Add(make([]byte, 8*64), uint32(0xFFFFFFFE), uint64(0xAAAAAAAAAAAAAAAA))
	f.Fuzz(func(t *testing.T, data []byte, w32 uint32, lanes uint64) {
		du := make([]matrix.Dist, 64)
		dv := make([]matrix.Dist, 64)
		for i := 0; i < 64; i++ {
			if i*8+8 <= len(data) {
				du[i] = decodeDist(binary.LittleEndian.Uint32(data[i*8:]))
				dv[i] = decodeDist(binary.LittleEndian.Uint32(data[i*8+4:]))
			} else {
				du[i] = matrix.Inf
				dv[i] = matrix.Dist(i)
			}
		}
		w := decodeDist(w32)
		if w == 0 {
			w = 1 // graph weights are positive
		}
		wantDu := append([]matrix.Dist(nil), du...)
		wantOut := RelaxLanesRef(wantDu, dv, w, lanes)
		if gotOut := RelaxLanes(du, dv, w, lanes); gotOut != wantOut {
			t.Fatalf("out = %x, ref %x (w=%d lanes=%x)", gotOut, wantOut, w, lanes)
		}
		for i := range du {
			if du[i] != wantDu[i] {
				t.Fatalf("du[%d] = %d, ref %d", i, du[i], wantDu[i])
			}
		}
	})
}
