package store

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"parapsp/internal/matrix"
)

func waitCold(t *testing.T, s *Store, rows int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := s.Snapshot(); st.ColdRows >= rows {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("cold tier never reached %d rows: %+v", rows, s.Snapshot())
}

// contains reports whether key is resident in any tier.
func (s *Store) contains(key Key) bool {
	s.hotMu.Lock()
	_, hot := s.hot[key]
	s.hotMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return hot || ok
}

func mustOpen(t testing.TB, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestWarmPutGet covers the exclusive-promote contract: a get removes the
// frame, decodes it bitwise-equal, and a second get misses.
func TestWarmPutGet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 512
	s := mustOpen(t, Config{N: n, WarmBytes: 1 << 20})
	rows := make([][]matrix.Dist, 8)
	for i := range rows {
		rows[i] = genRow(rng, n, "powerlaw")
		s.put(Key{Src: int32(i), Ver: 1}, rows[i])
	}
	st := s.Snapshot()
	if st.WarmRows != 8 || st.WarmBytes <= 0 {
		t.Fatalf("warm tier after 8 puts: %+v", st)
	}
	for i := range rows {
		got, tier := s.get(Key{Src: int32(i), Ver: 1})
		if tier != TierWarm {
			t.Fatalf("row %d from tier %v", i, tier)
		}
		for j := range got {
			if got[j] != rows[i][j] {
				t.Fatalf("row %d entry %d drifts", i, j)
			}
		}
		if _, tier := s.get(Key{Src: int32(i), Ver: 1}); tier != TierNone {
			t.Fatalf("row %d still resident after promote", i)
		}
	}
	if st := s.Snapshot(); st.WarmRows != 0 || st.WarmBytes != 0 {
		t.Fatalf("warm tier after draining: %+v", st)
	}
}

// TestWarmEvictsToSpill fills the warm tier past its budget and checks
// the overflow lands in the cold tier and survives a get round-trip.
func TestWarmEvictsToSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 1024
	dir := t.TempDir()
	// Budget roughly three compressed frames so later puts evict earlier.
	probe := AppendFrame(nil, genRow(rng, n, "extremes"), 0, nil)
	s := mustOpen(t, Config{
		N:         n,
		WarmBytes: int64(3 * len(probe)),
		// extremes rows barely compress, so size the budget off a probe
		SpillBytes:  1 << 22,
		SpillPath:   filepath.Join(dir, "arena"),
		Fingerprint: 42,
	})
	rows := make([][]matrix.Dist, 10)
	for i := range rows {
		rows[i] = genRow(rng, n, "extremes")
		s.put(Key{Src: int32(i), Ver: 1}, rows[i])
	}
	waitCold(t, s, 5)
	var fromCold int
	for i := range rows {
		got, tier := s.get(Key{Src: int32(i), Ver: 1})
		if tier == TierNone {
			t.Fatalf("row %d lost", i)
		}
		if tier == TierCold {
			fromCold++
		}
		for j := range got {
			if got[j] != rows[i][j] {
				t.Fatalf("row %d entry %d drifts (tier %v)", i, j, tier)
			}
		}
	}
	if fromCold == 0 {
		t.Fatal("no row came back from the cold tier")
	}
}

// TestColdBudgetEvicts keeps the spill budget tiny and checks the cold
// tier trims to it instead of growing without bound.
func TestColdBudgetEvicts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 1024
	probe := AppendFrame(nil, genRow(rng, n, "extremes"), 0, nil)
	s := mustOpen(t, Config{
		N:           n,
		WarmBytes:   int64(len(probe)),
		SpillBytes:  int64(2 * len(probe)),
		SpillPath:   filepath.Join(t.TempDir(), "arena"),
		Fingerprint: 42,
	})
	for i := 0; i < 20; i++ {
		s.put(Key{Src: int32(i), Ver: 1}, genRow(rng, n, "extremes"))
	}
	waitCold(t, s, 1)
	time.Sleep(50 * time.Millisecond) // let the queue drain
	st := s.Snapshot()
	if st.ColdBytes > int64(2*len(probe)) {
		t.Fatalf("cold tier %d bytes over budget %d", st.ColdBytes, 2*len(probe))
	}
}

// TestRecoverySeedsColdTier restarts the store on the same arena file and
// checks version-1 frames come back while later versions are discarded.
func TestRecoverySeedsColdTier(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 512
	dir := t.TempDir()
	path := filepath.Join(dir, "arena")
	cfg := Config{N: n, WarmBytes: 0, SpillBytes: 1 << 22, SpillPath: path, Fingerprint: 7}

	rows := map[int32][]matrix.Dist{}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 6; i++ {
		rows[i] = genRow(rng, n, "powerlaw")
		s.put(Key{Src: i, Ver: 1}, rows[i])
	}
	s.put(Key{Src: 100, Ver: 2}, genRow(rng, n, "grid"))
	waitCold(t, s, 7)
	s.Close()

	s2 := mustOpen(t, cfg)
	st := s2.Snapshot()
	if st.ColdRows != 6 {
		t.Fatalf("recovered %d rows, want 6 (the ver-1 frames)", st.ColdRows)
	}
	if s2.contains(Key{Src: 100, Ver: 2}) {
		t.Fatal("ver-2 frame resurrected at restart")
	}
	for i := int32(0); i < 6; i++ {
		got, tier := s2.get(Key{Src: i, Ver: 1})
		if tier != TierCold {
			t.Fatalf("row %d from tier %v after recovery", i, tier)
		}
		for j := range got {
			if got[j] != rows[i][j] {
				t.Fatalf("recovered row %d entry %d drifts", i, j)
			}
		}
	}
}

// TestRecoveryFingerprintMismatch opens the arena under a different graph
// fingerprint; it must reset to empty rather than serve foreign rows.
func TestRecoveryFingerprintMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 256
	path := filepath.Join(t.TempDir(), "arena")
	s, err := Open(Config{N: n, SpillBytes: 1 << 22, SpillPath: path, Fingerprint: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.put(Key{Src: 0, Ver: 1}, genRow(rng, n, "grid"))
	waitCold(t, s, 1)
	s.Close()

	s2 := mustOpen(t, Config{N: n, SpillBytes: 1 << 22, SpillPath: path, Fingerprint: 2})
	if st := s2.Snapshot(); st.ColdRows != 0 {
		t.Fatalf("foreign arena yielded %d rows", st.ColdRows)
	}
}

// TestRecoveryTruncatesTornTail corrupts the arena mid-record; reopening
// must keep the valid prefix and drop the tail.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 256
	path := filepath.Join(t.TempDir(), "arena")
	cfg := Config{N: n, SpillBytes: 1 << 22, SpillPath: path, Fingerprint: 9}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int32][]matrix.Dist{}
	for i := int32(0); i < 4; i++ {
		want[i] = genRow(rng, n, "powerlaw")
		s.put(Key{Src: i, Ver: 1}, want[i])
	}
	waitCold(t, s, 4)
	s.Close()

	// Tear the last record: chop half its payload off the file.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-20); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, cfg)
	st := s2.Snapshot()
	if st.ColdRows != 3 {
		t.Fatalf("recovered %d rows after torn tail, want 3", st.ColdRows)
	}
	for i := int32(0); i < 3; i++ {
		got, tier := s2.get(Key{Src: i, Ver: 1})
		if tier != TierCold {
			t.Fatalf("row %d from tier %v", i, tier)
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("row %d entry %d drifts after recovery", i, j)
			}
		}
	}
}

// TestReconcile drives the retag/repair/drop/age paths and checks the
// RecStats ledger adds up.
func TestReconcile(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 128
	s := mustOpen(t, Config{N: n, WarmBytes: 1 << 20})
	rows := map[int32][]matrix.Dist{}
	for i := int32(0); i < 9; i++ {
		rows[i] = genRow(rng, n, "grid")
		s.put(Key{Src: i, Ver: 2}, rows[i])
	}
	s.put(Key{Src: 50, Ver: 1}, genRow(rng, n, "grid")) // aged out

	st := s.Reconcile(2, 3, func(row []matrix.Dist) Verdict {
		switch int(row[0]) % 3 {
		case 0:
			return Keep
		case 1:
			return Repair
		default:
			return Drop
		}
	}, func(row []matrix.Dist) int {
		row[1] = 99
		return 1
	})
	if st.Scanned != 9 || st.Scanned != st.Retagged+st.Repaired+st.Dropped {
		t.Fatalf("reconcile ledger broken: %+v", st)
	}
	if st.Aged != 1 {
		t.Fatalf("aged %d, want 1", st.Aged)
	}
	for i := int32(0); i < 9; i++ {
		got, tier := s.get(Key{Src: i, Ver: 3})
		switch int(rows[i][0]) % 3 {
		case 0: // retagged: identical content at the new version
			if tier == TierNone {
				t.Fatalf("retagged row %d missing", i)
			}
			for j := range got {
				if got[j] != rows[i][j] {
					t.Fatalf("retagged row %d entry %d drifts", i, j)
				}
			}
		case 1: // repaired: repair callback's edit visible
			if tier == TierNone {
				t.Fatalf("repaired row %d missing", i)
			}
			if got[1] != 99 {
				t.Fatalf("repaired row %d entry 1 = %d, want 99", i, got[1])
			}
		default: // dropped
			if tier != TierNone {
				t.Fatalf("dropped row %d still resident", i)
			}
		}
		if s.contains(Key{Src: i, Ver: 2}) {
			t.Fatalf("row %d still resident at the old version", i)
		}
	}
	if s.contains(Key{Src: 50, Ver: 1}) {
		t.Fatal("aged frame still resident")
	}
}

// TestCompaction churns a tiny cold tier until dead bytes force a
// rewrite, then checks the surviving rows still decode and the file
// shrank.
func TestCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 4096
	probe := AppendFrame(nil, genRow(rng, n, "extremes"), 0, nil)
	path := filepath.Join(t.TempDir(), "arena")
	s := mustOpen(t, Config{
		N:           n,
		WarmBytes:   int64(len(probe)),
		SpillBytes:  int64(2 * len(probe)),
		SpillPath:   path,
		Fingerprint: 1,
	})
	// Churn enough rows through the cold tier that evictions accumulate
	// dead bytes well past SpillBytes (the compaction threshold floor is
	// 4 MiB; extremes frames are ~4–5 bytes/entry, so ~16 KiB each needs
	// a few hundred).
	keep := map[int32][]matrix.Dist{}
	for i := int32(0); i < 400; i++ {
		row := genRow(rng, n, "extremes")
		keep[i] = row
		s.put(Key{Src: i, Ver: 1}, row)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.compacts.Load() > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.compacts.Load() == 0 {
		t.Skip("compaction threshold not reached on this run")
	}
	// Churn keeps appending after the last compaction, so the file may
	// carry dead bytes up to the compaction threshold again — but never
	// unboundedly more.
	st := s.Snapshot()
	const compactFloor = 4 << 20
	bound := int64(compactFloor) + 2*int64(2*len(probe)) + arenaHeaderLen + 512*recordHeaderLen
	if st.ArenaFile > bound {
		t.Fatalf("arena file %d bytes exceeds compaction bound %d (live %d)", st.ArenaFile, bound, st.ColdBytes)
	}
	// Whatever survived must still round-trip.
	var checked int
	for i := int32(0); i < 400 && checked < 2; i++ {
		got, tier := s.get(Key{Src: i, Ver: 1})
		if tier == TierNone {
			continue
		}
		checked++
		for j := range got {
			if got[j] != keep[i][j] {
				t.Fatalf("row %d entry %d drifts after compaction", i, j)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no surviving row to check after compaction")
	}
}

// TestArenaReadValidatesKeyAndGeneration pins the defense against stale
// cold offsets: a read presenting the wrong record key, or an offset
// snapshotted before a compact moved every record, must error so the
// store reports a miss — never decode whichever record the offset lands
// on.
func TestArenaReadValidatesKeyAndGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 64
	a, _, err := openArena(filepath.Join(t.TempDir(), "arena"), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	k0, k1 := Key{Src: 0, Ver: 1}, Key{Src: 1, Ver: 1}
	f0 := AppendFrame(nil, genRow(rng, n, "grid"), 0, nil)
	f1 := AppendFrame(nil, genRow(rng, n, "grid"), 0, nil)
	off0, err := a.append(k0, f0)
	if err != nil {
		t.Fatal(err)
	}
	off1, err := a.append(k1, f1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.read(off0, int32(len(f0)), k1, a.generation(), nil); err == nil {
		t.Fatal("read with the wrong key succeeded")
	}
	if _, err := a.read(off0, int32(len(f0)), k0, a.generation(), nil); err != nil {
		t.Fatalf("read with the right key: %v", err)
	}

	// Compact away k0; its old offset now points at k1's record. A read
	// presenting the pre-compact generation must be rejected.
	gen := a.generation()
	moved, err := a.compact([]recoveredRecord{{key: k1, off: off1, len: int32(len(f1))}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.read(off0, int32(len(f0)), k0, gen, nil); err == nil {
		t.Fatal("stale-generation read succeeded after compact")
	}
	got, err := a.read(moved[off1], int32(len(f1)), k1, a.generation(), nil)
	if err != nil {
		t.Fatalf("post-compact read: %v", err)
	}
	for i := range got {
		if got[i] != f1[i] {
			t.Fatalf("byte %d drifts after compact", i)
		}
	}
}

// TestReconcileRetagsColdFrames retags cold frames to a new version and
// checks they still read back: the on-disk record header keeps the
// original key, which the store must track separately for validation.
func TestReconcileRetagsColdFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 256
	s := mustOpen(t, Config{
		N:           n,
		WarmBytes:   0,
		SpillBytes:  1 << 22,
		SpillPath:   filepath.Join(t.TempDir(), "arena"),
		Fingerprint: 4,
	})
	rows := map[int32][]matrix.Dist{}
	for i := int32(0); i < 4; i++ {
		rows[i] = genRow(rng, n, "powerlaw")
		s.put(Key{Src: i, Ver: 1}, rows[i])
	}
	waitCold(t, s, 4)
	st := s.Reconcile(1, 2, func([]matrix.Dist) Verdict { return Keep }, nil)
	if st.Retagged != 4 {
		t.Fatalf("retagged %d of 4: %+v", st.Retagged, st)
	}
	for i := int32(0); i < 4; i++ {
		got, tier := s.get(Key{Src: i, Ver: 2})
		if tier != TierCold {
			t.Fatalf("retagged row %d from tier %v", i, tier)
		}
		for j := range got {
			if got[j] != rows[i][j] {
				t.Fatalf("retagged row %d entry %d drifts", i, j)
			}
		}
	}
	if s.decodeErrs.Load() != 0 {
		t.Fatalf("%d decode errors on retagged reads", s.decodeErrs.Load())
	}
}

// TestStoreConcurrentChurn hammers put/get from several goroutines under
// -race.
func TestStoreConcurrentChurn(t *testing.T) {
	n := 256
	s := mustOpen(t, Config{
		N:           n,
		WarmBytes:   8 << 10,
		SpillBytes:  64 << 10,
		SpillPath:   filepath.Join(t.TempDir(), "arena"),
		Fingerprint: 3,
	})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < 300; j++ {
				src := int32(rng.Intn(64))
				if rng.Intn(2) == 0 {
					s.put(Key{Src: src, Ver: 1}, genRow(rng, n, "powerlaw"))
				} else {
					s.get(Key{Src: src, Ver: 1})
				}
			}
			done <- struct{}{}
		}(int64(w))
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	s.Close()
	s.Close() // idempotent
}

// TestReconcileRepairedFramesAreExact pins the warm budget's accounting
// of repaired frames: Reconcile re-encodes them into scratch and stores
// exact-length copies, so a warm frame holds no capacity beyond the
// len(buf) bytes the budget counts.
func TestReconcileRepairedFramesAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 2000
	refs := &testRefs{rows: map[uint32][]matrix.Dist{1: genRow(rng, n, "powerlaw")}, pick: map[int32]uint32{}}
	s := mustOpen(t, Config{N: n, WarmBytes: 1 << 22, Refs: refs})
	for i := int32(0); i < 8; i++ {
		refs.pick[i] = uint32(i % 2) // self-delta and reference frames
		s.put(Key{Src: i, Ver: 1}, genRow(rng, n, "powerlaw"))
	}
	st := s.Reconcile(1, 2, func([]matrix.Dist) Verdict { return Repair }, func(row []matrix.Dist) int {
		row[0] = 0
		return 1
	})
	if st.Repaired != 8 {
		t.Fatalf("repaired %d of 8: %+v", st.Repaired, st)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var bytes int64
	for k, e := range s.index {
		if e.state != stateWarm {
			t.Fatalf("%v: state %d, want warm", k, e.state)
		}
		if cap(e.buf) != len(e.buf) {
			t.Errorf("%v: warm frame of %d bytes holds a capacity of %d", k, len(e.buf), cap(e.buf))
		}
		bytes += int64(len(e.buf))
	}
	if bytes != s.warm {
		t.Fatalf("warm tier counts %d bytes, frames hold %d", s.warm, bytes)
	}
}

// swapRefs is a dictionary whose rows a test can replace.
type swapRefs struct {
	mu   sync.Mutex
	rows map[uint32][]matrix.Dist
}

func (r *swapRefs) RefFor(src int32) (uint32, []matrix.Dist) { return 1, r.RefRow(1) }

func (r *swapRefs) RefRow(id uint32) []matrix.Dist {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rows[id]
}

func (r *swapRefs) set(id uint32, row []matrix.Dist) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rows[id] = row
}

// TestReplacedDictionaryRowMisses hands out a new slice with different
// content for a dictionary id after frames were encoded against the old
// one. The checksum memo is keyed by the slice, so the new row is
// re-hashed: every old frame fails its dictionary check, in promotes and
// in Reconcile, counts a decode error and never yields a row decoded
// against the wrong reference. Frames encoded after the swap round-trip.
func TestReplacedDictionaryRowMisses(t *testing.T) {
	for _, tier := range []string{"warm", "cold"} {
		t.Run(tier, func(t *testing.T) {
			rng := rand.New(rand.NewSource(15))
			n := 512
			refs := &swapRefs{rows: map[uint32][]matrix.Dist{1: genRow(rng, n, "grid")}}
			cfg := Config{N: n, WarmBytes: 1 << 20, Refs: refs}
			if tier == "cold" {
				cfg.WarmBytes = 0
				cfg.SpillBytes = 1 << 22
				cfg.SpillPath = filepath.Join(t.TempDir(), "arena")
				cfg.Fingerprint = 5
			}
			s := mustOpen(t, cfg)
			rows := map[int32][]matrix.Dist{}
			for i := int32(0); i < 6; i++ {
				rows[i] = genRow(rng, n, "grid")
				s.put(Key{Src: i, Ver: 1}, rows[i])
			}
			if tier == "cold" {
				waitCold(t, s, 6)
			}
			// One promote before the swap fills the memo for id 1.
			if got, found := s.get(Key{Src: 0, Ver: 1}); found == TierNone || !slices.Equal(got, rows[0]) {
				t.Fatalf("promote before the swap: tier %v", found)
			}

			refs.set(1, genRow(rng, n, "grid"))
			ctx := context.Background()
			srcs := []int32{1, 2, 3}
			got, err := s.Load(ctx, 1, 0, srcs, func(miss []int32) ([][]matrix.Dist, error) {
				if !slices.Equal(miss, srcs) {
					t.Errorf("solve called for %v, want %v", miss, srcs)
				}
				out := make([][]matrix.Dist, len(miss))
				for i, src := range miss {
					out[i] = rows[src]
				}
				return out, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, src := range srcs {
				if !slices.Equal(got[i], rows[src]) {
					t.Fatalf("row %d differs from its solve", src)
				}
			}
			if errs := s.decodeErrs.Load(); errs != 3 {
				t.Fatalf("%d decode errors after three stale promotes, want 3", errs)
			}
			// Reconcile judges the three rows the Load installed in T1 and
			// drops the two stale frames without judging them.
			st := s.Reconcile(1, 2, func(row []matrix.Dist) Verdict {
				exact := false
				for _, r := range rows {
					exact = exact || slices.Equal(r, row)
				}
				if !exact {
					t.Error("Reconcile judged a row decoded against the replaced dictionary row")
				}
				return Keep
			}, nil)
			if st.Retagged != 3 || st.Dropped != 2 || s.decodeErrs.Load() != 5 {
				t.Fatalf("Reconcile over two stale frames: %+v, %d decode errors", st, s.decodeErrs.Load())
			}

			// Frames encoded against the new row decode again.
			s.put(Key{Src: 9, Ver: 2}, rows[1])
			if tier == "cold" {
				waitCold(t, s, 1)
			}
			if got, found := s.get(Key{Src: 9, Ver: 2}); found == TierNone || !slices.Equal(got, rows[1]) {
				t.Fatalf("frame encoded after the swap: tier %v", found)
			}
		})
	}
}

// TestStoreConcurrentSharedDictionary runs put and get from 8 goroutines
// over one dictionary on a fresh store, so the checksum memo is filled
// under contention; check.sh runs it under -race -count=10. Every row a
// get returns must be the row put for its key, and no frame may fail to
// decode.
func TestStoreConcurrentSharedDictionary(t *testing.T) {
	const n, srcs, workers = 256, 64, 8
	rng := rand.New(rand.NewSource(16))
	refs := &testRefs{rows: map[uint32][]matrix.Dist{}, pick: map[int32]uint32{}}
	for id := uint32(1); id <= 4; id++ {
		refs.rows[id] = genRow(rng, n, "grid")
	}
	rows := make([][]matrix.Dist, srcs)
	for i := range rows {
		refs.pick[int32(i)] = uint32(i % 5) // 0 = self-delta
		rows[i] = genRow(rng, n, "grid")
	}
	s := mustOpen(t, Config{
		N:           n,
		WarmBytes:   4 << 10,
		SpillBytes:  1 << 20,
		SpillPath:   filepath.Join(t.TempDir(), "arena"),
		Fingerprint: 6,
		Refs:        refs,
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < 300; j++ {
				src := int32(rng.Intn(srcs))
				if rng.Intn(2) == 0 {
					s.put(Key{Src: src, Ver: 1}, rows[src])
					continue
				}
				if got, tier := s.get(Key{Src: src, Ver: 1}); tier != TierNone && !slices.Equal(got, rows[src]) {
					t.Errorf("row %d from tier %v differs from the row put", src, tier)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if errs := s.decodeErrs.Load(); errs != 0 {
		t.Fatalf("%d decode errors", errs)
	}
}
