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
	// Sums exactly on Inf and one above it, against Inf and near-Inf
	// destinations, across a block and a tail. Raw words: 10 decodes to
	// 1, 18 to 2, 1 to MaxFinite-1, 0 to Inf.
	edge := []byte{
		10, 0, 0, 0, 0, 0, 0, 0, // src 1, dst Inf
		18, 0, 0, 0, 0, 0, 0, 0, // src 2, dst Inf
		10, 0, 0, 0, 1, 0, 0, 0, // src 1, dst MaxFinite-1
	}
	f.Add(bytes.Repeat(edge, 4), uint32(matrix.MaxFinite)) // Inf-1 + 1 = Inf, Inf-1 + 2 = Inf+1
	edge = []byte{
		1, 0, 0, 0, 0, 0, 0, 0, // src MaxFinite-1, dst Inf
		1, 0, 0, 0, 1, 0, 0, 0, // src MaxFinite-1, dst MaxFinite-1
	}
	f.Add(bytes.Repeat(edge, 6), uint32(2)) // MaxFinite-1 + 2 = Inf
	f.Add(bytes.Repeat(edge, 6), uint32(3)) // MaxFinite-1 + 3 = Inf+1
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
	// dv = MaxFinite-1 in every lane (raw word 1), du alternating Inf
	// (raw 0) and MaxFinite-1: w = 1 (raw 10) improves the Inf lanes, w =
	// 2 (raw 18) lands exactly on Inf and w = 3 (raw 26) one above it,
	// neither improving any lane.
	lanes := bytes.Repeat([]byte{0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0}, 32)
	f.Add(lanes, uint32(10), ^uint64(0))
	f.Add(lanes, uint32(18), ^uint64(0))
	f.Add(lanes, uint32(26), ^uint64(0))
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

// FuzzRelaxWeighted asserts RelaxWeighted == RelaxWeightedRef, improved
// lists included, on arbitrary arcs into an eight-entry row: the first 32
// bytes are the row (decodeDist, Inf past the data), every following
// 5-byte group one arc (target byte mod 8, so parallel edges are common,
// and a weight word). Bases and weights go through decodeBoundary.
func FuzzRelaxWeighted(f *testing.F) {
	const rowLen = 8
	seed := func(base uint32, row []uint32, arcs ...[2]uint32) {
		data := make([]byte, 0, rowLen*4+5*len(arcs))
		for i := 0; i < rowLen; i++ {
			raw := uint32(0) // Inf
			if i < len(row) {
				raw = row[i]
			}
			data = binary.LittleEndian.AppendUint32(data, raw)
		}
		for _, a := range arcs {
			data = binary.LittleEndian.AppendUint32(append(data, byte(a[0])), a[1])
		}
		f.Add(data, base)
	}
	// Boundary raw words: 0 decodes to 0, 1 to 1, 2 to Inf-1, 3 to Inf.
	boundary := [][2]uint32{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 0x12345674}}
	seed(0, nil, boundary...)
	seed(1, nil, boundary...)
	seed(2, nil, boundary...) // Inf-1 + 1 = Inf, Inf-1 + Inf-1 wraps in 32 bits
	seed(3, nil, boundary...)
	seed(0x9ABCDEF5, nil, boundary...)
	// Parallel edges into one target, improving in decreasing weight
	// order (improved lists it once per improvement), then one that does
	// not improve; targets with finite, near-Inf and Inf entries.
	seed(1, []uint32{10, 1, 0, 18, 102, 0, 9, 0},
		[2]uint32{5, 100}, [2]uint32{5, 60}, [2]uint32{5, 1}, [2]uint32{5, 100},
		[2]uint32{1, 0}, [2]uint32{1, 1}, [2]uint32{2, 2}, [2]uint32{6, 3})
	seed(0x14, []uint32{10, 18, 26, 34, 42, 50, 58, 66},
		[2]uint32{7, 4}, [2]uint32{7, 12}, [2]uint32{0, 0}, [2]uint32{3, 1}, [2]uint32{3, 0})
	f.Fuzz(func(t *testing.T, data []byte, base32 uint32) {
		row := make([]matrix.Dist, rowLen)
		for i := range row {
			row[i] = matrix.Inf
			if i*4+4 <= len(data) {
				row[i] = decodeDist(binary.LittleEndian.Uint32(data[i*4:]))
			}
		}
		var adj []int32
		var w []matrix.Dist
		for rest := data[min(len(data), rowLen*4):]; len(rest) >= 5; rest = rest[5:] {
			adj = append(adj, int32(rest[0]%rowLen))
			w = append(w, decodeBoundary(binary.LittleEndian.Uint32(rest[1:])))
		}
		base := decodeBoundary(base32)

		want := append([]matrix.Dist(nil), row...)
		wantImp := RelaxWeightedRef(want, adj, w, base, nil)
		gotImp := RelaxWeighted(row, adj, w, base, nil)
		for i := range want {
			if row[i] != want[i] {
				t.Fatalf("row[%d] = %d, ref %d (base=%d adj=%v w=%v)", i, row[i], want[i], base, adj, w)
			}
		}
		if len(gotImp) != len(wantImp) {
			t.Fatalf("improved = %v, ref %v", gotImp, wantImp)
		}
		for i := range wantImp {
			if gotImp[i] != wantImp[i] {
				t.Fatalf("improved = %v, ref %v", gotImp, wantImp)
			}
		}
	})
}

// decodeBoundary maps a raw fuzz word onto a base or a weight: half of the
// words land on the boundary values 0, 1, Inf-1 and Inf, the rest are the
// raw word itself, so large sums near and past Inf are common.
func decodeBoundary(raw uint32) matrix.Dist {
	switch raw % 8 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return matrix.MaxFinite
	case 3:
		return matrix.Inf
	default:
		return matrix.Dist(raw)
	}
}
