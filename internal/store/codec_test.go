package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"parapsp/internal/baseline"
	"parapsp/internal/gen"
	"parapsp/internal/matrix"
	"parapsp/internal/oracle"
)

// Reference codec: the encode and decode loops exactly as the store first
// wrote them, one appendUvarint or readUvarint per entry, the delta mode
// tested per entry and the dictionary row hashed on every call. They
// exist so the differential and fuzz tests can hold the optimized codec
// to byte-identical frames and bit-equal rows, and so the benchmarks can
// be compared with the loops they replaced. Do not optimize them.

// refAppendFrame is the reference for AppendFrame.
func refAppendFrame(dst []byte, row []matrix.Dist, refID uint32, ref []matrix.Dist) []byte {
	dst = append(dst, frameMagic, frameFormat)
	var refCheck uint32
	if refID != 0 {
		refCheck = rowCheck(ref)
	}
	dst = appendUvarint(dst, uint64(refID))
	dst = appendUvarint(dst, uint64(refCheck))
	dst = appendUvarint(dst, uint64(len(row)))
	payloadStart := len(dst)
	prev := int64(0)
	for i, d := range row {
		refV := prev
		if refID != 0 {
			refV = int64(ref[i])
		}
		delta := int64(d) - refV
		dst = appendUvarint(dst, zigzag(delta))
		prev = int64(d)
	}
	sum := bytesCheck(dst[payloadStart:])
	return appendUvarint(dst, uint64(sum))
}

// refDecodeFrame is the reference for DecodeFrame.
func refDecodeFrame(frame []byte, expectN int, dst []matrix.Dist, refs RefProvider) ([]matrix.Dist, error) {
	if len(frame) < 2 {
		return nil, fmt.Errorf("%w: %d-byte frame", ErrFrame, len(frame))
	}
	if frame[0] != frameMagic {
		return nil, fmt.Errorf("%w: bad magic 0x%02x", ErrFrame, frame[0])
	}
	if frame[1] != frameFormat {
		return nil, fmt.Errorf("%w: unknown format 0x%02x", ErrFrame, frame[1])
	}
	p := frame[2:]
	refID64, p, err := readUvarint(p)
	if err != nil {
		return nil, fmt.Errorf("%w: refID: %v", ErrFrame, err)
	}
	refCheck, p, err := readUvarint(p)
	if err != nil {
		return nil, fmt.Errorf("%w: refCheck: %v", ErrFrame, err)
	}
	count64, p, err := readUvarint(p)
	if err != nil {
		return nil, fmt.Errorf("%w: count: %v", ErrFrame, err)
	}
	if count64 > maxFrameEntries {
		return nil, fmt.Errorf("%w: %d entries exceeds limit", ErrFrame, count64)
	}
	count := int(count64)
	if expectN >= 0 && count != expectN {
		return nil, fmt.Errorf("%w: frame has %d entries, want %d", ErrFrame, count, expectN)
	}
	var ref []matrix.Dist
	if refID64 != 0 {
		if refID64 > 1<<32-1 {
			return nil, fmt.Errorf("%w: refID %d out of range", ErrFrame, refID64)
		}
		if refs == nil {
			return nil, fmt.Errorf("%w: refID %d with no dictionary", ErrFrame, refID64)
		}
		ref = refs.RefRow(uint32(refID64))
		if len(ref) != count {
			return nil, fmt.Errorf("%w: dictionary row %d has %d entries, frame %d", ErrFrame, refID64, len(ref), count)
		}
		if got := rowCheck(ref); uint64(got) != refCheck {
			return nil, fmt.Errorf("%w: dictionary row %d checksum 0x%08x, frame expects 0x%08x", ErrFrame, refID64, got, refCheck)
		}
	} else if refCheck != 0 {
		return nil, fmt.Errorf("%w: self-delta frame with refCheck 0x%08x", ErrFrame, refCheck)
	}
	if cap(dst) >= count {
		dst = dst[:count]
	} else {
		dst = make([]matrix.Dist, count)
	}
	payload := p
	prev := int64(0)
	for i := 0; i < count; i++ {
		var u uint64
		u, p, err = readUvarint(p)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrFrame, i, err)
		}
		refV := prev
		if refID64 != 0 {
			refV = int64(ref[i])
		}
		v := refV + unzigzag(u)
		if v < 0 || v > int64(matrix.Inf) {
			return nil, fmt.Errorf("%w: entry %d decodes to %d, outside [0, %d]", ErrFrame, i, v, uint32(matrix.Inf))
		}
		dst[i] = matrix.Dist(v)
		prev = v
	}
	want := bytesCheck(payload[:len(payload)-len(p)])
	sum, p, err := readUvarint(p)
	if err != nil {
		return nil, fmt.Errorf("%w: checksum: %v", ErrFrame, err)
	}
	if sum != uint64(want) {
		return nil, fmt.Errorf("%w: payload checksum 0x%08x, want 0x%08x", ErrFrame, sum, want)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(p))
	}
	return dst, nil
}

// testRefs is a fixed dictionary for codec tests.
type testRefs struct {
	rows map[uint32][]matrix.Dist
	pick map[int32]uint32
}

func (r *testRefs) RefFor(src int32) (uint32, []matrix.Dist) {
	id := r.pick[src]
	return id, r.rows[id]
}

func (r *testRefs) RefRow(id uint32) []matrix.Dist { return r.rows[id] }

// rowShapes names every genRow shape.
var rowShapes = []string{"powerlaw", "grid", "infrun", "extremes"}

// genRow produces distance-row-shaped test data: long Inf runs (the
// unreachable tail of a power-law component), hub-close short distances,
// and grid-like locally incremental stretches.
func genRow(rng *rand.Rand, n int, shape string) []matrix.Dist {
	row := make([]matrix.Dist, n)
	switch shape {
	case "powerlaw":
		for i := range row {
			switch {
			case rng.Float64() < 0.3:
				row[i] = matrix.Inf
			default:
				row[i] = matrix.Dist(rng.Intn(12))
			}
		}
	case "grid":
		d := matrix.Dist(0)
		for i := range row {
			d += matrix.Dist(rng.Intn(3))
			row[i] = d
		}
	case "infrun":
		for i := range row {
			if i%7 < 5 {
				row[i] = matrix.Inf
			} else {
				row[i] = matrix.Dist(rng.Intn(1000))
			}
		}
	case "extremes":
		for i := range row {
			switch rng.Intn(4) {
			case 0:
				row[i] = 0
			case 1:
				row[i] = matrix.Inf
			case 2:
				row[i] = matrix.Inf - 1
			default:
				row[i] = matrix.Dist(rng.Uint32() % uint32(matrix.Inf))
			}
		}
	}
	return row
}

// TestCodecRoundTrip is the differential test of satellite 3: every
// encoded row must decode back bitwise-equal, across row shapes, row
// lengths, and both delta modes.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 17, 256, 4096} {
		refs := &testRefs{rows: map[uint32][]matrix.Dist{}, pick: map[int32]uint32{}}
		refs.rows[1] = genRow(rng, n, "powerlaw")
		refs.rows[2] = genRow(rng, n, "grid")
		for _, shape := range rowShapes {
			for trial := 0; trial < 20; trial++ {
				row := genRow(rng, n, shape)
				refID := uint32(trial % 3) // 0 = self-delta
				refs.pick[0] = refID
				id, ref := refs.RefFor(0)
				frame := AppendFrame(nil, row, id, ref)
				got, err := DecodeFrame(frame, n, nil, refs)
				if err != nil {
					t.Fatalf("n=%d shape=%s ref=%d: decode: %v", n, shape, refID, err)
				}
				if len(got) != len(row) {
					t.Fatalf("n=%d shape=%s: got %d entries", n, shape, len(got))
				}
				for i := range row {
					if got[i] != row[i] {
						t.Fatalf("n=%d shape=%s ref=%d entry %d: got %d want %d",
							n, shape, refID, i, got[i], row[i])
					}
				}
			}
		}
	}
}

// checkFrame holds the codec to the reference on one row: the frame must
// be byte-identical to refAppendFrame's, through the public API and with
// a memoized dictionary checksum appended after existing bytes, and every
// decoder must return the row. It returns the frame.
func checkFrame(t *testing.T, what string, row []matrix.Dist, refID uint32, ref []matrix.Dist, refs RefProvider) []byte {
	t.Helper()
	want := refAppendFrame(nil, row, refID, ref)
	if got := AppendFrame(nil, row, refID, ref); !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendFrame differs from the reference (%d vs %d bytes)", what, len(got), len(want))
	}
	var sums refSums
	var check uint32
	if refID != 0 {
		check = sums.sum(refID, ref)
	}
	if got := appendFrame([]byte{1, 2, 3}, row, refID, ref, check); !bytes.Equal(got[3:], want) {
		t.Fatalf("%s: memoized encode differs from the reference", what)
	}
	if got, err := sameDecode(t, what, want, len(row), refs); err != nil || !slices.Equal(got, row) {
		t.Fatalf("%s: decode does not return the row (err %v)", what, err)
	}
	return want
}

// TestCodecMatchesReference is the encoder's differential test: every
// row shape, lengths from 0 to 2,100 (each up to 256, then every 37th),
// both delta modes. The rows of one shape are prefixes of one
// 2,100-entry row, and so is the reference.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const maxN = 2100
	var lengths []int
	for n := 0; n <= maxN; n++ {
		if n <= 256 || n%37 == 0 || n == maxN {
			lengths = append(lengths, n)
		}
	}
	for _, shape := range rowShapes {
		long := genRow(rng, maxN, shape)
		longRef := genRow(rng, maxN, "powerlaw")
		for _, n := range lengths {
			row, ref := long[:n], longRef[:n:n]
			refs := &testRefs{rows: map[uint32][]matrix.Dist{3: ref}}
			checkFrame(t, fmt.Sprintf("%s n=%d self", shape, n), row, 0, nil, refs)
			checkFrame(t, fmt.Sprintf("%s n=%d ref", shape, n), row, 3, ref, refs)
		}
	}
}

// varintDeltas are deltas whose zigzag varints are 1, 2, 3, 4 and 5 bytes
// long, with both signs; no delta between two Dist values needs more.
var varintDeltas = []struct {
	delta int64
	bytes int
}{
	{63, 1}, {-64, 1},
	{1<<13 - 1, 2}, {-1 << 13, 2},
	{1<<20 - 1, 3}, {-1 << 20, 3},
	{1<<27 - 1, 4}, {-1 << 27, 4},
	{int64(matrix.Inf), 5}, {-int64(matrix.Inf), 5},
}

// entryVarintLen returns the length of entry i's varint in a frame.
func entryVarintLen(t *testing.T, frame []byte, i int) int {
	t.Helper()
	p := frame[2:]
	for k := 0; k < 3; k++ { // refID, refCheck, count
		_, p, _ = readUvarint(p)
	}
	for ; i > 0; i-- {
		_, p, _ = readUvarint(p)
	}
	_, rest, err := readUvarint(p)
	if err != nil {
		t.Fatal(err)
	}
	return len(p) - len(rest)
}

// TestCodecVarintLengths places deltas of every varint length at the
// first, middle and last entry, in both delta modes, and holds encode
// and decode to the reference.
func TestCodecVarintLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 2, 3, 2000} {
		for _, at := range []int{0, n / 2, n - 1} {
			for _, d := range varintDeltas {
				// Reference delta: the entry is ref[at] + delta, both in range.
				ref := genRow(rng, n, "grid")
				row := slices.Clone(ref)
				ref[at], row[at] = 0, matrix.Dist(d.delta)
				if d.delta < 0 {
					ref[at], row[at] = matrix.Dist(-d.delta), 0
				}
				refs := &testRefs{rows: map[uint32][]matrix.Dist{1: ref}}
				what := fmt.Sprintf("n=%d entry %d delta %d ref", n, at, d.delta)
				frame := checkFrame(t, what, row, 1, ref, refs)
				if got := entryVarintLen(t, frame, at); got != d.bytes {
					t.Fatalf("%s: %d-byte varint, want %d", what, got, d.bytes)
				}

				// Self delta: the entry is its predecessor (0 before the
				// first) plus delta, so a negative delta cannot open a row.
				if at == 0 && d.delta < 0 {
					continue
				}
				row = genRow(rng, n, "grid")
				prev := matrix.Dist(0)
				if at > 0 && d.delta < 0 {
					prev = matrix.Dist(-d.delta)
				}
				if at > 0 {
					row[at-1] = prev
				}
				row[at] = matrix.Dist(int64(prev) + d.delta)
				what = fmt.Sprintf("n=%d entry %d delta %d self", n, at, d.delta)
				frame = checkFrame(t, what, row, 0, nil, nil)
				if got := entryVarintLen(t, frame, at); got != d.bytes {
					t.Fatalf("%s: %d-byte varint, want %d", what, got, d.bytes)
				}
			}
		}
	}
}

// rawFrame assembles a frame around raw entry bytes with a valid payload
// checksum, so a test can place any varint encoding in the payload.
func rawFrame(refID, refCheck uint32, count uint64, payload []byte) []byte {
	f := []byte{frameMagic, frameFormat}
	f = appendUvarint(f, uint64(refID))
	f = appendUvarint(f, uint64(refCheck))
	f = appendUvarint(f, count)
	f = append(f, payload...)
	return appendUvarint(f, uint64(bytesCheck(payload)))
}

// sameDecode decodes frame with the reference, the public and the store
// path decoders and fails unless all three error or all three return the
// same row. It returns the reference's result.
func sameDecode(t *testing.T, what string, frame []byte, n int, refs RefProvider) ([]matrix.Dist, error) {
	t.Helper()
	var sums refSums
	want, wantErr := refDecodeFrame(frame, n, nil, refs)
	for i := 0; i < 2; i++ { // the second store decode hits the memo
		for _, dec := range []struct {
			name string
			fn   func() ([]matrix.Dist, error)
		}{
			{"public", func() ([]matrix.Dist, error) { return DecodeFrame(frame, n, nil, refs) }},
			{"store", func() ([]matrix.Dist, error) { return decodeFrame(frame, n, nil, refs, &sums) }},
		} {
			got, err := dec.fn()
			switch {
			case (err == nil) != (wantErr == nil):
				t.Fatalf("%s: %s decode error %v, reference error %v", what, dec.name, err, wantErr)
			case err != nil && !errors.Is(err, ErrFrame):
				t.Fatalf("%s: %s decode error %v does not wrap ErrFrame", what, dec.name, err)
			case !slices.Equal(got, want):
				t.Fatalf("%s: %s decode differs from the reference", what, dec.name)
			}
		}
	}
	return want, wantErr
}

// TestDecodeMatchesReference holds the decoder to the reference on
// hand-built payloads: varints of 1, 2, 3, 5 and 10 bytes at the first,
// middle and last entry, canonical and not, valid and not, in both delta
// modes.
func TestDecodeMatchesReference(t *testing.T) {
	encodings := []struct {
		name  string
		bytes []byte
		ok    bool // whether a frame carrying it decodes
	}{
		{"1 byte", []byte{0x02}, true},
		{"2 bytes non-canonical zero", []byte{0x80, 0x00}, true},
		{"2 bytes", []byte{0x80, 0x01}, true},
		{"3 bytes", []byte{0x80, 0x80, 0x01}, true},
		{"3 bytes non-canonical", []byte{0x84, 0x80, 0x00}, true},
		{"5 bytes", appendUvarint(nil, zigzag(1<<27)), true},
		{"5 bytes minus Inf", appendUvarint(nil, zigzag(-int64(matrix.Inf))), false},
		{"10 bytes non-canonical", []byte{0x82, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, true},
		{"10 bytes max uint64", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, false},
		{"10 bytes 65-bit", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, false},
		{"11 bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, false},
	}
	const n = 9
	ref := make([]matrix.Dist, n)
	for i := range ref {
		ref[i] = 1000
	}
	refs := &testRefs{rows: map[uint32][]matrix.Dist{1: ref}}
	for _, enc := range encodings {
		for _, at := range []int{0, n / 2, n - 1} {
			var payload []byte
			for i := 0; i < n; i++ {
				if i == at {
					payload = append(payload, enc.bytes...)
				} else {
					payload = append(payload, 0x00)
				}
			}
			for _, mode := range []struct {
				name  string
				refID uint32
			}{{"self", 0}, {"ref", 1}} {
				var check uint32
				if mode.refID != 0 {
					check = rowCheck(ref)
				}
				what := fmt.Sprintf("%s at entry %d, %s delta", enc.name, at, mode.name)
				frame := rawFrame(mode.refID, check, n, payload)
				_, err := sameDecode(t, what, frame, n, refs)
				if ok := err == nil; ok != enc.ok {
					t.Fatalf("%s: decode error %v, want ok=%v", what, err, enc.ok)
				}
			}
		}
	}
}

// TestCodecRefCompression checks the design claim that landmark-reference
// deltas beat self-deltas for hub-close rows: a row equal to the
// reference plus tiny offsets must encode near 1 byte/entry.
func TestCodecRefCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2048
	ref := genRow(rng, n, "powerlaw")
	row := make([]matrix.Dist, n)
	for i, d := range ref {
		if d == matrix.Inf {
			row[i] = matrix.Inf
		} else {
			row[i] = d + matrix.Dist(rng.Intn(3))
		}
	}
	refs := &testRefs{rows: map[uint32][]matrix.Dist{1: ref}, pick: map[int32]uint32{0: 1}}
	frame := AppendFrame(nil, row, 1, ref)
	if len(frame) > n+64 {
		t.Fatalf("ref-delta frame is %d bytes for %d entries; expected ~1 byte/entry", len(frame), n)
	}
	raw := 4 * n
	if len(frame)*2 > raw {
		t.Fatalf("ref-delta frame %d bytes fails to halve raw %d bytes", len(frame), raw)
	}
	got, err := DecodeFrame(frame, n, nil, refs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if got[i] != row[i] {
			t.Fatalf("entry %d: got %d want %d", i, got[i], row[i])
		}
	}
}

// TestCodecSteadyAllocs pins the zero-steady-state-allocation contract:
// with pre-sized scratch, neither encode nor decode allocates.
func TestCodecSteadyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 1024
	row := genRow(rng, n, "powerlaw")
	ref := genRow(rng, n, "grid")
	refs := &testRefs{rows: map[uint32][]matrix.Dist{1: ref}, pick: map[int32]uint32{0: 1}}
	buf := make([]byte, 0, 16*n)
	dst := make([]matrix.Dist, n)
	frame := AppendFrame(buf[:0], row, 1, ref)
	if allocs := testing.AllocsPerRun(100, func() {
		frame = AppendFrame(buf[:0], row, 1, ref)
	}); allocs != 0 {
		t.Fatalf("AppendFrame allocates %.1f per run with pre-sized scratch", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		out, err := DecodeFrame(frame, n, dst, refs)
		if err != nil {
			t.Fatal(err)
		}
		dst = out
	}); allocs != 0 {
		t.Fatalf("DecodeFrame allocates %.1f per run with pre-sized scratch", allocs)
	}

	// The store's path: the dictionary checksum comes from its memo, whose
	// first use fills it; every later hit allocates nothing.
	s := mustOpen(t, Config{N: n, WarmBytes: 1 << 20, Refs: refs})
	s.sums.sum(1, ref)
	if allocs := testing.AllocsPerRun(100, func() {
		id, r := refs.RefFor(0)
		frame = appendFrame(buf[:0], row, id, r, s.sums.sum(id, r))
	}); allocs != 0 {
		t.Fatalf("memoized encode allocates %.1f per run", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		out, err := s.decode(frame, dst)
		if err != nil {
			t.Fatal(err)
		}
		dst = out
	}); allocs != 0 {
		t.Fatalf("memoized decode allocates %.1f per run", allocs)
	}
}

// TestDecodeFrameRejects covers the malformed-frame classes the fuzz
// target explores, deterministically.
func TestDecodeFrameRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 64
	row := genRow(rng, n, "powerlaw")
	ref := genRow(rng, n, "grid")
	refs := &testRefs{rows: map[uint32][]matrix.Dist{1: ref}, pick: map[int32]uint32{0: 1}}
	good := AppendFrame(nil, row, 1, ref)
	selfGood := AppendFrame(nil, row, 0, nil)

	cases := map[string][]byte{
		"empty":        {},
		"short":        {frameMagic},
		"bad magic":    append([]byte{0x00}, good[1:]...),
		"bad format":   append([]byte{frameMagic, 0x7f}, good[2:]...),
		"truncated":    good[:len(good)/2],
		"trailing":     append(append([]byte{}, good...), 0x00),
		"flip payload": flipByte(good, len(good)-8),
		"flip header":  flipByte(good, 3),
	}
	check := rowCheck(ref)
	entries := bytes.Repeat([]byte{0x00}, n)
	withEntry := func(at int, enc ...byte) []byte {
		return slices.Concat(entries[:at], enc, entries[at+1:])
	}
	cases["65-bit entry varint"] = rawFrame(0, 0, uint64(n), withEntry(n/2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02))
	cases["overlong entry varint"] = rawFrame(0, 0, uint64(n), withEntry(n/2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00))
	cases["truncated entry varint"] = rawFrame(0, 0, uint64(n), slices.Concat(entries[:n-1], []byte{0x80}))
	cases["entry below 0"] = rawFrame(0, 0, uint64(n), withEntry(0, 0x01))
	cases["entry below 0, ref delta"] = rawFrame(1, check, uint64(n), withEntry(n-1, appendUvarint(nil, zigzag(-int64(ref[n-1])-1))...))
	cases["entry above Inf"] = rawFrame(0, 0, uint64(n), withEntry(0, appendUvarint(nil, zigzag(int64(matrix.Inf)+1))...))
	cases["entry above Inf, ref delta"] = rawFrame(1, check, uint64(n), withEntry(0, appendUvarint(nil, zigzag(int64(matrix.Inf)-int64(ref[0])+1))...))
	cases["count over limit"] = rawFrame(0, 0, maxFrameEntries+1, entries)
	cases["unknown dictionary row"] = rawFrame(2, check, uint64(n), entries)
	cases["refID out of range"] = slices.Concat([]byte{frameMagic, frameFormat}, appendUvarint(nil, 1<<32), good[3:])
	cases["self delta with refCheck"] = rawFrame(0, 1, uint64(n), entries)
	cases["checksum mismatch"] = flipByte(good, len(good)-1)
	for cut := 0; cut < len(good); cut++ {
		cases[fmt.Sprintf("ref frame cut at %d", cut)] = good[:cut]
	}
	for cut := 0; cut < len(selfGood); cut++ {
		cases[fmt.Sprintf("self frame cut at %d", cut)] = selfGood[:cut]
	}
	var sums refSums
	for name, frame := range cases {
		if _, err := DecodeFrame(frame, n, nil, refs); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: DecodeFrame error %v, want ErrFrame", name, err)
		}
		if _, err := decodeFrame(frame, n, nil, refs, &sums); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: store decode error %v, want ErrFrame", name, err)
		}
		if _, err := refDecodeFrame(frame, n, nil, refs); err == nil {
			t.Errorf("%s: the reference decodes it; the case is not malformed", name)
		}
	}
	// Dictionary failures: missing provider, unknown id, checksum drift.
	if _, err := DecodeFrame(good, n, nil, nil); err == nil {
		t.Error("ref frame decoded with nil dictionary")
	}
	wrongRefs := &testRefs{rows: map[uint32][]matrix.Dist{1: genRow(rng, n, "grid")}}
	if _, err := DecodeFrame(good, n, nil, wrongRefs); err == nil {
		t.Error("ref frame decoded against a different dictionary row")
	}
	// Wrong expected length.
	if _, err := DecodeFrame(selfGood, n+1, nil, nil); err == nil {
		t.Error("frame decoded at the wrong expectN")
	}
	if _, err := decodeFrame(good, n, nil, wrongRefs, &sums); err == nil {
		t.Error("ref frame decoded against a different dictionary row through the memo")
	}
	// Sanity: the originals still decode.
	if _, err := DecodeFrame(good, n, nil, refs); err != nil {
		t.Fatalf("pristine ref frame: %v", err)
	}
	if _, err := DecodeFrame(selfGood, n, nil, nil); err != nil {
		t.Fatalf("pristine self frame: %v", err)
	}
}

func flipByte(frame []byte, i int) []byte {
	out := append([]byte{}, frame...)
	out[i] ^= 0xff
	return out
}

// FuzzDecodeFrame pins the no-panic/no-over-read contract on arbitrary
// bytes (satellite 3). Valid inputs must round-trip; everything else must
// return an error wrapping ErrFrame.
func FuzzDecodeFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []string{"powerlaw", "grid", "extremes"} {
		row := genRow(rng, 32, shape)
		f.Add(AppendFrame(nil, row, 0, nil), 32)
	}
	f.Add([]byte{frameMagic, frameFormat, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f}, 8)
	f.Add([]byte{}, 0)
	ref := genRow(rng, 16, "grid")
	refs := &testRefs{rows: map[uint32][]matrix.Dist{1: ref}}
	f.Add(AppendFrame(nil, genRow(rng, 16, "powerlaw"), 1, ref), 16)
	f.Add(rawFrame(0, 0, 3, []byte{0x80, 0x00, 0x82, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0x04}), 3)
	f.Add(rawFrame(1, rowCheck(ref), 16, bytes.Repeat([]byte{0x81, 0x00}, 16)), 16)
	var sums refSums
	f.Fuzz(func(t *testing.T, frame []byte, n int) {
		if n < -1 || n > 1<<16 {
			n = -1
		}
		// The public and the store decoders must agree with the reference:
		// all error, or all return the same row.
		want, wantErr := refDecodeFrame(frame, n, nil, refs)
		row, err := DecodeFrame(frame, n, nil, refs)
		memo, memoErr := decodeFrame(frame, n, nil, refs, &sums)
		if (err == nil) != (wantErr == nil) || (memoErr == nil) != (wantErr == nil) {
			t.Fatalf("errors disagree: public %v, store %v, reference %v", err, memoErr, wantErr)
		}
		if !slices.Equal(row, want) || !slices.Equal(memo, want) {
			t.Fatal("decoded rows differ from the reference")
		}
		if err != nil {
			if !errors.Is(err, ErrFrame) || !errors.Is(memoErr, ErrFrame) {
				t.Fatalf("error does not wrap ErrFrame: %v / %v", err, memoErr)
			}
			return
		}
		// Anything that decodes must re-encode to an equivalent row.
		re := AppendFrame(nil, row, 0, nil)
		row2, err := DecodeFrame(re, len(row), nil, nil)
		if err != nil {
			t.Fatalf("re-encode of decoded row fails: %v", err)
		}
		for i := range row {
			if row[i] != row2[i] {
				t.Fatalf("entry %d drifts across re-encode", i)
			}
		}
	})
}

// TestVarintNeverOverReads hands readUvarint every prefix of a long
// continuation run; it must error, not read past the slice.
func TestVarintNeverOverReads(t *testing.T) {
	cont := bytes.Repeat([]byte{0x80}, 12)
	for i := 0; i <= len(cont); i++ {
		if _, _, err := readUvarint(cont[:i]); err == nil {
			t.Fatalf("prefix of %d continuation bytes decoded", i)
		}
	}
	// 10-byte encodings at the uint64 boundary.
	max := appendUvarint(nil, 1<<64-1)
	v, rest, err := readUvarint(max)
	if err != nil || v != 1<<64-1 || len(rest) != 0 {
		t.Fatalf("max uint64: v=%d rest=%d err=%v", v, len(rest), err)
	}
	over := append([]byte{}, max...)
	over[9] = 0x02 // would need bit 64
	if _, _, err := readUvarint(over); err == nil {
		t.Fatal("65-bit varint decoded")
	}
}

// landmarkRefs is the serving tiers' dictionary: a row is encoded against
// the row of the landmark nearest its source.
type landmarkRefs struct {
	o *oracle.Oracle
	k int // landmark count
}

func (r *landmarkRefs) RefFor(src int32) (uint32, []matrix.Dist) {
	i, _ := r.o.NearestLandmark(src)
	if i < 0 {
		return 0, nil
	}
	return uint32(i + 1), r.o.FromRow(i)
}

func (r *landmarkRefs) RefRow(id uint32) []matrix.Dist {
	if id == 0 || int(id) > r.k {
		return nil
	}
	return r.o.FromRow(int(id - 1))
}

// frameFixture returns the benchmarks' input: a weighted power-law graph
// of the fixed benchmark's shape (n=2000, gamma 2.5, min degree 2,
// weights U[1,100]), its 16-landmark dictionary, one source's row and
// that row's frame against its nearest landmark's row.
func frameFixture(b *testing.B) (*landmarkRefs, int32, []matrix.Dist, []byte) {
	b.Helper()
	const n = 2000
	g, err := gen.PowerLawConfiguration(n, 2.5, 2, true, 1, gen.Weighting{Min: 1, Max: 100})
	if err != nil {
		b.Fatal(err)
	}
	o, err := oracle.Build(g, oracle.Options{Landmarks: 16, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	refs := &landmarkRefs{o, len(o.Landmarks())}
	src := int32(n / 2)
	row := make([]matrix.Dist, n)
	baseline.DijkstraSSSP(g, src, row)
	id, ref := refs.RefFor(src)
	if id == 0 {
		b.Fatalf("source %d reaches no landmark", src)
	}
	return refs, src, row, AppendFrame(nil, row, id, ref)
}

// BenchmarkAppendFrame encodes one power-law row against its nearest
// landmark: through the public API, which hashes the dictionary row on
// every call, and through the store's memoized checksum.
func BenchmarkAppendFrame(b *testing.B) {
	refs, src, row, _ := frameFixture(b)
	buf := make([]byte, 0, maxFrameOverhead+maxEntryLen*len(row))
	b.Run("public", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id, ref := refs.RefFor(src)
			buf = AppendFrame(buf[:0], row, id, ref)
		}
	})
	b.Run("store", func(b *testing.B) {
		s := mustOpen(b, Config{N: len(row), WarmBytes: 1 << 20, Refs: refs})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id, ref := refs.RefFor(src)
			buf = appendFrame(buf[:0], row, id, ref, s.sums.sum(id, ref))
		}
	})
}

// BenchmarkDecodeFrame decodes the same frame into reused scratch:
// through the public API and through the store's memoized checksum.
func BenchmarkDecodeFrame(b *testing.B) {
	refs, _, row, frame := frameFixture(b)
	dst := make([]matrix.Dist, len(row))
	b.Run("public", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeFrame(frame, len(row), dst, refs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("store", func(b *testing.B) {
		s := mustOpen(b, Config{N: len(row), WarmBytes: 1 << 20, Refs: refs})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.decode(frame, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}
