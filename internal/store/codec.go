// Package store is the tiered distance-row store that breaks the serving
// layer's O(cached_rows × n) memory wall. It owns every finished row:
// rows too cold for the hot uncompressed LRU (tier 1) are kept as
// delta-encoded varint frames in a byte-budgeted warm tier (tier 2) and
// spilled to a disk-backed, mmap-read arena (tier 3) instead of being
// discarded — the blocked/out-of-core row management that lets APSP-style
// serving scale past RAM (Schoeneman & Zola, arXiv:1902.04446), with the
// landmark machinery of internal/oracle doubling as the compression
// dictionary. Load looks rows up across the tiers and coalesces
// concurrent promotes and solves of one row (single flight); the caller
// supplies the solve.
//
// Everything in the store is keyed by (source, graph version), so the
// tiers compose with the dynamic-graph serving semantics: a row is exact
// at exactly its version, and Reconcile carries every tier's rows across
// a mutation (retag / repair / drop).
package store

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"parapsp/internal/matrix"
)

// Frame layout (all multi-byte values are varints):
//
//	byte 0   frameMagic
//	byte 1   frameFormat
//	uvarint  refID     0 = self-delta; r > 0 = dictionary row r-1
//	uvarint  refCheck  FNV-1a/32 of the reference row (0 for self-delta)
//	uvarint  count     number of entries
//	count ×  zigzag-varint delta from the reference value
//	uvarint  payload checksum (FNV-1a/32 over the delta bytes)
//
// Self-delta encodes each entry against its predecessor (starting from 0),
// which compresses the long Inf runs and locally-similar finite stretches
// of real distance rows. Reference-delta encodes entry i against ref[i]:
// with ref the row of the landmark L nearest to the source, the triangle
// inequality bounds every finite delta by d(src, L), so hub-close sources
// compress to one or two bytes per entry. refCheck pins the dictionary:
// a frame never decodes against a different reference row than it was
// encoded with, so a rebuilt or mismatched oracle turns into a clean
// decode error instead of silently wrong distances.
const (
	frameMagic  = 0xD5
	frameFormat = 0x01
)

// maxFrameEntries bounds the entry count a frame may declare, so a
// malformed frame cannot drive a huge allocation before validation fails.
const maxFrameEntries = 1 << 27

// ErrFrame is the error class of every frame-decoding failure. Malformed
// frames — truncated, corrupted, wrong dictionary, trailing garbage —
// always produce an error wrapping ErrFrame, never a panic or over-read
// (pinned by FuzzDecodeFrame).
var ErrFrame = errors.New("store: malformed frame")

// RefProvider supplies the compression dictionary: immutable reference
// rows shared between encode and decode. The serving layer backs it with
// the build-time landmark oracle; the rows need not be valid distances of
// the current graph — they are only a dictionary — so graph mutations
// never invalidate them.
//
// The row handed out for an id never changes in place. A Store memoizes
// each dictionary row's checksum by the slice it was computed from (its
// first element and length): a provider may hand out a different slice
// for an id, which is then re-hashed, but must not rewrite the contents
// of a slice it has handed out.
type RefProvider interface {
	// RefFor picks the dictionary row for encoding src's row: a refID > 0
	// and the row, or (0, nil) to fall back to self-delta.
	RefFor(src int32) (uint32, []matrix.Dist)
	// RefRow resolves a refID stored in a frame (id > 0), or nil when
	// unknown.
	RefRow(id uint32) []matrix.Dist
}

// Worst-case frame sizes. A delta between two Dist values lies strictly
// between -2^32 and 2^32, so its zigzag value fits in 33 bits: at most 5
// varint bytes. The rest of a frame is magic and format, refID and
// refCheck (uint32s, 5 bytes each), count (up to 10) and the payload
// checksum (5).
const (
	maxEntryLen      = 5
	maxFrameOverhead = 2 + 5 + 5 + 10 + 5
)

// AppendFrame encodes row as one frame appended to dst and returns the
// extended slice. refID and ref describe the dictionary row (refID 0 and
// a nil ref select self-delta); ref, when given, must have len(row)
// entries. When dst has room for a worst-case frame (5 bytes per entry
// plus 27) the encode allocates nothing (pinned by TestCodecSteadyAllocs).
func AppendFrame(dst []byte, row []matrix.Dist, refID uint32, ref []matrix.Dist) []byte {
	var refCheck uint32
	if refID != 0 {
		refCheck = rowCheck(ref)
	}
	return appendFrame(dst, row, refID, ref, refCheck)
}

// appendFrame is AppendFrame with the dictionary row's checksum supplied,
// so the store can pass its memoized value. It grows dst once to the
// worst-case frame size and writes the entries by index, one-byte
// varints inline.
func appendFrame(dst []byte, row []matrix.Dist, refID uint32, ref []matrix.Dist, refCheck uint32) []byte {
	dst = slices.Grow(dst, maxFrameOverhead+maxEntryLen*len(row))
	dst = append(dst, frameMagic, frameFormat)
	dst = appendUvarint(dst, uint64(refID))
	dst = appendUvarint(dst, uint64(refCheck))
	dst = appendUvarint(dst, uint64(len(row)))
	start := len(dst)
	out := dst[start:cap(dst)]
	j := 0
	if refID != 0 {
		for i, d := range row {
			u := zigzag(int64(d) - int64(ref[i]))
			if u < 0x80 {
				out[j] = byte(u)
				j++
				continue
			}
			j = putUvarint(out, j, u)
		}
	} else {
		prev := int64(0)
		for _, d := range row {
			u := zigzag(int64(d) - prev)
			prev = int64(d)
			if u < 0x80 {
				out[j] = byte(u)
				j++
				continue
			}
			j = putUvarint(out, j, u)
		}
	}
	dst = dst[:start+j]
	return appendUvarint(dst, uint64(bytesCheck(dst[start:])))
}

// DecodeFrame decodes one frame into a row of expectN entries. dst is
// reused when it has capacity expectN (zero steady-state allocations);
// refs resolves reference-delta frames and may be nil when only
// self-delta frames are expected. Every malformed input returns an error
// wrapping ErrFrame.
func DecodeFrame(frame []byte, expectN int, dst []matrix.Dist, refs RefProvider) ([]matrix.Dist, error) {
	return decodeFrame(frame, expectN, dst, refs, nil)
}

// decodeFrame is DecodeFrame with an optional checksum memo for the
// dictionary rows (nil hashes the row on every call).
func decodeFrame(frame []byte, expectN int, dst []matrix.Dist, refs RefProvider, sums *refSums) ([]matrix.Dist, error) {
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
		if got := sums.sum(uint32(refID64), ref); uint64(got) != refCheck {
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
	if refID64 != 0 {
		p, err = decodeRefDeltas(p, dst, ref)
	} else {
		p, err = decodeSelfDeltas(p, dst)
	}
	if err != nil {
		return nil, err
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

// decodeRefDeltas parses len(dst) zigzag deltas from p, entry i against
// ref[i], and returns the bytes after them. It and decodeSelfDeltas
// differ only in what a delta is added to: the delta mode is chosen once
// per frame, not per entry. Both parse by index, the one- and two-byte
// varints that carry nearly every entry inline and anything longer,
// truncated or malformed through readUvarint.
func decodeRefDeltas(p []byte, dst, ref []matrix.Dist) ([]byte, error) {
	ref = ref[:len(dst)]
	j := 0
	for i := range dst {
		var u uint64
		if j < len(p) && p[j] < 0x80 {
			u = uint64(p[j])
			j++
		} else if j+1 < len(p) && p[j+1] < 0x80 {
			u = uint64(p[j]&0x7f) | uint64(p[j+1])<<7
			j += 2
		} else {
			v, rest, err := readUvarint(p[j:])
			if err != nil {
				return nil, fmt.Errorf("%w: entry %d: %v", ErrFrame, i, err)
			}
			u = v
			j = len(p) - len(rest)
		}
		v := int64(ref[i]) + unzigzag(u)
		if uint64(v) > uint64(matrix.Inf) {
			return nil, entryRangeErr(i, v)
		}
		dst[i] = matrix.Dist(v)
	}
	return p[j:], nil
}

// decodeSelfDeltas parses len(dst) zigzag deltas from p, each against the
// previous entry (the first against 0), and returns the bytes after them.
func decodeSelfDeltas(p []byte, dst []matrix.Dist) ([]byte, error) {
	prev := int64(0)
	j := 0
	for i := range dst {
		var u uint64
		if j < len(p) && p[j] < 0x80 {
			u = uint64(p[j])
			j++
		} else if j+1 < len(p) && p[j+1] < 0x80 {
			u = uint64(p[j]&0x7f) | uint64(p[j+1])<<7
			j += 2
		} else {
			v, rest, err := readUvarint(p[j:])
			if err != nil {
				return nil, fmt.Errorf("%w: entry %d: %v", ErrFrame, i, err)
			}
			u = v
			j = len(p) - len(rest)
		}
		v := prev + unzigzag(u)
		if uint64(v) > uint64(matrix.Inf) {
			return nil, entryRangeErr(i, v)
		}
		dst[i] = matrix.Dist(v)
		prev = v
	}
	return p[j:], nil
}

// entryRangeErr reports an entry that decodes outside [0, Inf]; as a
// uint64, a negative v also compares above Inf.
func entryRangeErr(i int, v int64) error {
	return fmt.Errorf("%w: entry %d decodes to %d, outside [0, %d]", ErrFrame, i, v, uint32(matrix.Inf))
}

func zigzag(d int64) uint64   { return uint64((d << 1) ^ (d >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint is binary.AppendUvarint without the package dependency
// spelled out at every call site.
func appendUvarint(dst []byte, u uint64) []byte {
	for u >= 0x80 {
		dst = append(dst, byte(u)|0x80)
		u >>= 7
	}
	return append(dst, byte(u))
}

// putUvarint writes u as a varint at b[j:] and returns the index after
// it; b must have room (appendFrame sizes it for the worst case).
func putUvarint(b []byte, j int, u uint64) int {
	for u >= 0x80 {
		b[j] = byte(u) | 0x80
		u >>= 7
		j++
	}
	b[j] = byte(u)
	return j + 1
}

// readUvarint decodes one LEB128 varint from p, returning the value and
// the remaining bytes. It never reads past len(p) and rejects encodings
// longer than 10 bytes or with a final-byte overflow.
func readUvarint(p []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(p); i++ {
		b := p[i]
		if i == 9 && b > 1 {
			return 0, nil, errors.New("varint overflows uint64")
		}
		if i >= 10 {
			return 0, nil, errors.New("varint longer than 10 bytes")
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			return v, p[i+1:], nil
		}
	}
	return 0, nil, errors.New("truncated varint")
}

// FNV-1a/32, inlined so the encode/decode hot path allocates no
// hash.Hash.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// rowCheck is the dictionary-pinning checksum: FNV-1a/32 over the row's
// values in little-endian byte order.
func rowCheck(row []matrix.Dist) uint32 {
	h := uint32(fnvOffset32)
	for _, d := range row {
		for s := 0; s < 32; s += 8 {
			h ^= uint32(byte(d >> s))
			h *= fnvPrime32
		}
	}
	return h
}

// bytesCheck is FNV-1a/32 over raw bytes.
func bytesCheck(p []byte) uint32 {
	h := uint32(fnvOffset32)
	for _, b := range p {
		h ^= uint32(b)
		h *= fnvPrime32
	}
	return h
}

// refSums memoizes rowCheck per dictionary row for one store: frames are
// encoded and decoded against a handful of landmark rows, and hashing
// one costs as much as decoding a frame. An entry holds only for the
// slice it was computed from (same first element, same length), so a
// provider that hands out a different slice for an id is re-hashed, and
// a frame encoded against the old row still fails its refCheck; this
// relies on RefProvider's rule that a handed-out row never changes in
// place. Readers take no lock and a hit allocates nothing: the map is
// copied on write and published atomically. The entries keep alive only
// rows the provider already keeps alive for the store's lifetime.
type refSums struct {
	mu sync.Mutex // serializes writers
	m  atomic.Pointer[map[uint32]refSum]
}

type refSum struct {
	first *matrix.Dist
	n     int
	sum   uint32
}

// sum returns rowCheck(ref) for dictionary row id, from the memo when ref
// is the slice it was computed from. A nil memo hashes every time.
func (c *refSums) sum(id uint32, ref []matrix.Dist) uint32 {
	if c == nil || len(ref) == 0 {
		return rowCheck(ref)
	}
	if m := c.m.Load(); m != nil {
		if e, ok := (*m)[id]; ok && e.first == &ref[0] && e.n == len(ref) {
			return e.sum
		}
	}
	sum := rowCheck(ref)
	c.mu.Lock()
	defer c.mu.Unlock()
	next := make(map[uint32]refSum)
	if m := c.m.Load(); m != nil {
		maps.Copy(next, *m)
	}
	next[id] = refSum{first: &ref[0], n: len(ref), sum: sum}
	c.m.Store(&next)
	return sum
}
