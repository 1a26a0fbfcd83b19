package store

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"parapsp/internal/matrix"
	"parapsp/internal/obs"
)

// Key identifies one distance row: a source vertex at a graph version.
// Versioned keys let mutations and queries overlap without blocking: a
// query pinned to version v only ever sees rows of v, while a mutation
// installs the next version's rows beside the old ones.
type Key struct {
	Src int32
	Ver uint64
}

// Tier names where a lookup found a row.
type Tier uint8

const (
	// TierNone: resident in no tier; the lookup is a miss.
	TierNone Tier = iota
	// TierHot: an uncompressed row in the hot LRU (T1).
	TierHot
	// TierWarm: decoded from the in-memory compressed tier (T2).
	TierWarm
	// TierCold: decoded from the disk arena (T3).
	TierCold
)

func (t Tier) String() string {
	switch t {
	case TierHot:
		return "hot"
	case TierWarm:
		return "warm"
	case TierCold:
		return "cold"
	default:
		return "none"
	}
}

// Verdict is a reconciliation decision for one row at the mutating
// version (the store-side mirror of dyn.RowVerdict, kept local so the
// store does not depend on the mutation machinery).
type Verdict uint8

const (
	// Keep: the row is exact in the new graph; carry it over for free.
	Keep Verdict = iota
	// Repair: the row needs the caller's in-place repair.
	Repair
	// Drop: the row is stale; do not carry it over.
	Drop
)

// Config tunes a Store.
type Config struct {
	// N is the row length (the served graph's vertex count). Every tier
	// holds rows of exactly this length.
	N int
	// HotBytes budgets the hot tier (T1): uncompressed rows at 4*N bytes
	// each in a byte-accounted LRU. At least one row is always retained.
	HotBytes int64
	// WarmBytes budgets the in-memory compressed tier; <= 0 disables it
	// (T1 evictions go straight to spill, or are dropped when spill is
	// off too).
	WarmBytes int64
	// SpillBytes budgets the live bytes of the disk arena; <= 0 disables
	// spilling entirely.
	SpillBytes int64
	// SpillPath is the arena file (created or recovered). Required when
	// SpillBytes > 0.
	SpillPath string
	// Fingerprint identifies the served graph inside the arena header;
	// reopening an arena written for a different graph resets it.
	Fingerprint uint64
	// Refs is the optional compression dictionary (nearest-landmark
	// reference rows); nil encodes every frame as self-delta.
	Refs RefProvider
	// Metrics receives the store's counters: the row ledger (see ledger)
	// and the internal store.* counters — spill timing, compactions,
	// decode errors, recovered frames. nil creates a private registry.
	Metrics *obs.Metrics
}

// entryState tracks where a frame's bytes live.
type entryState uint8

const (
	stateWarm     entryState = iota // buf resident, counted in warmBytes
	stateSpilling                   // buf resident, queued for the arena
	stateCold                       // on disk at off/len
)

type entry struct {
	key    Key
	state  entryState
	buf    []byte // compressed frame while warm or spilling
	off    int64  // arena offset once cold
	length int32  // payload length once cold
	// diskKey is the (Src,Ver) in the on-disk record header once cold.
	// Retagging rebinds key without rewriting the record, so the two can
	// differ; arena reads validate the header against diskKey.
	diskKey Key
	elem    *list.Element
	// dropped marks an entry the index abandoned while it sat in the
	// spill queue; the writeback goroutine discards it on arrival.
	dropped bool
}

// Store owns every finished row, from its in-flight promote or solve
// through three exclusive tiers: T1 (hot, uncompressed), T2 (warm,
// compressed frames) and T3 (cold, frames in the disk arena).
//
// T1 and the flights sit behind hotMu; the warm/cold index sits behind mu,
// whose only long-running work is a frame decode (O(n) varint scan) and
// Reconcile's frame loop. No code holds one lock while taking the other,
// so a T1 hit never waits on a decode, arena I/O or the frame loop. Arena
// file I/O happens in the writeback goroutine and in cold reads (the
// arena has its own lock).
type Store struct {
	cfg Config
	led ledger

	hotMu    sync.Mutex
	hot      map[Key]*hotRow
	hotLRU   *list.List // front = most recently used
	hotBytes int64
	hotCap   int64
	flights  map[flightKey]*flight

	mu      sync.Mutex
	index   map[Key]*entry
	warmLRU *list.List // stateWarm entries, front = most recent
	coldLRU *list.List // stateCold entries, front = most recently written/read
	warm    int64      // warm payload bytes
	cold    int64      // live cold payload bytes
	closed  bool

	arena *arena
	// spillQ is the writeback queue: entries evicted from warm, waiting
	// for the async goroutine to land them in the arena. A list guarded
	// by mu (not a bounded channel) so a CPU-starved consumer can never
	// force drops: past the byte cap, producers spill inline instead —
	// see enqueueSpillLocked.
	spillQ    *list.List
	spillCond *sync.Cond
	queued    int64 // payload bytes sitting in spillQ
	wg        sync.WaitGroup

	encPool sync.Pool // *[]byte worst-case frame scratch: encodes and cold reads
	rowPool sync.Pool // *[]matrix.Dist decode scratch (Reconcile)
	sums    refSums   // dictionary-row checksums, see refSums

	spillTime  obs.Timing
	compacts   *obs.Counter
	spillDrops *obs.Counter
	decodeErrs *obs.Counter
	recovered  *obs.Counter
}

// ledger is the store's row ledger, published under the serve.* names the
// serving layer reads. Every row lookup counts once in
// serve.store.lookups and serve.cache.lookups and lands in exactly one
// of serve.store.{t1_hits, t2_promotes, t3_promotes, misses}; the serving
// layer adds its sketch answers to serve.store.lookups, so
//
//	serve.store.lookups == sketch_answered + t1_hits + t2_promotes + t3_promotes + misses
//
// serve.cache.coalesced is the subset of t1_hits that waited on a flight.
// Reconcile adds its RecStats to serve.store.dyn.*.
type ledger struct {
	lookups, rowLookups, coalesced, demotes *obs.Counter
	found                                   [TierCold + 1]*obs.Counter // by tier; TierNone counts misses
	promoteT                                [TierCold + 1]obs.Timing   // TierWarm and TierCold only
	demoteT                                 obs.Timing

	scanned, retagged, repaired, repairedLabels, dropped, aged *obs.Counter
}

func newLedger(reg *obs.Metrics) ledger {
	return ledger{
		lookups:    reg.Counter("serve.store.lookups"),
		rowLookups: reg.Counter("serve.cache.lookups"),
		coalesced:  reg.Counter("serve.cache.coalesced"),
		demotes:    reg.Counter("serve.store.demotes"),
		found: [...]*obs.Counter{
			TierNone: reg.Counter("serve.store.misses"),
			TierHot:  reg.Counter("serve.store.t1_hits"),
			TierWarm: reg.Counter("serve.store.t2_promotes"),
			TierCold: reg.Counter("serve.store.t3_promotes"),
		},
		promoteT: [...]obs.Timing{
			TierWarm: reg.Timing("serve.store.t2_promote"),
			TierCold: reg.Timing("serve.store.t3_promote"),
		},
		demoteT:        reg.Timing("serve.store.demote"),
		scanned:        reg.Counter("serve.store.dyn.scanned"),
		retagged:       reg.Counter("serve.store.dyn.retagged"),
		repaired:       reg.Counter("serve.store.dyn.repaired"),
		repairedLabels: reg.Counter("serve.store.dyn.repaired_labels"),
		dropped:        reg.Counter("serve.store.dyn.dropped"),
		aged:           reg.Counter("serve.store.dyn.aged"),
	}
}

// Open builds the store, creating or recovering the spill arena when
// enabled. Recovered arena records whose version is 1 re-seed the cold
// tier (a fresh server always starts at version 1 of the same
// fingerprinted graph, so those rows are exact); records at later
// versions belonged to a dead version chain and are discarded.
func Open(cfg Config) (*Store, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("store: row length %d", cfg.N)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	hotCap := cfg.HotBytes
	if hotCap < 1 {
		hotCap = 1
	}
	s := &Store{
		cfg:        cfg,
		led:        newLedger(cfg.Metrics),
		hot:        make(map[Key]*hotRow),
		hotLRU:     list.New(),
		hotCap:     hotCap,
		flights:    make(map[flightKey]*flight),
		index:      make(map[Key]*entry),
		warmLRU:    list.New(),
		coldLRU:    list.New(),
		spillTime:  cfg.Metrics.Timing("store.spill"),
		compacts:   cfg.Metrics.Counter("store.compactions"),
		spillDrops: cfg.Metrics.Counter("store.spill_dropped"),
		decodeErrs: cfg.Metrics.Counter("store.decode_errors"),
		recovered:  cfg.Metrics.Counter("store.recovered_frames"),
	}
	s.encPool.New = func() any { b := make([]byte, 0, maxFrameOverhead+maxEntryLen*cfg.N); return &b }
	s.rowPool.New = func() any { r := make([]matrix.Dist, cfg.N); return &r }
	if cfg.SpillBytes > 0 {
		if cfg.SpillPath == "" {
			return nil, fmt.Errorf("store: SpillBytes set without SpillPath")
		}
		if err := os.MkdirAll(filepath.Dir(cfg.SpillPath), 0o755); err != nil {
			return nil, fmt.Errorf("store: spill dir: %w", err)
		}
		a, recs, err := openArena(cfg.SpillPath, cfg.Fingerprint)
		if err != nil {
			return nil, err
		}
		s.arena = a
		for _, r := range recs {
			if r.key.Ver != 1 {
				continue // stale version chain from a previous process
			}
			if _, dup := s.index[r.key]; dup {
				continue
			}
			e := &entry{key: r.key, diskKey: r.key, state: stateCold, off: r.off, length: r.len}
			s.index[r.key] = e
			e.elem = s.coldLRU.PushBack(e)
			s.cold += int64(r.len)
			s.recovered.Add(1)
		}
		s.evictColdLocked()
		s.spillQ = list.New()
		s.spillCond = sync.NewCond(&s.mu)
		s.wg.Add(1)
		go s.writeback()
	}
	return s, nil
}

// encode returns src's row as a frame against its dictionary row, with
// the memoized dictionary checksum. The frame is encoded in pooled
// scratch and returned as an exact-length copy, so the bytes a tier
// accounts for are all the frame holds.
func (s *Store) encode(src int32, row []matrix.Dist) []byte {
	var (
		refID, refCheck uint32
		ref             []matrix.Dist
	)
	if s.cfg.Refs != nil {
		if refID, ref = s.cfg.Refs.RefFor(src); refID != 0 {
			refCheck = s.sums.sum(refID, ref)
		}
	}
	bufp := s.encPool.Get().(*[]byte)
	frame := appendFrame((*bufp)[:0], row, refID, ref, refCheck)
	buf := make([]byte, len(frame))
	copy(buf, frame)
	s.encPool.Put(bufp)
	return buf
}

// decode decodes a frame of this store into dst (nil allocates a row),
// with the memoized dictionary checksums.
func (s *Store) decode(frame []byte, dst []matrix.Dist) ([]matrix.Dist, error) {
	return decodeFrame(frame, s.cfg.N, dst, s.cfg.Refs, &s.sums)
}

// put encodes row and admits it to the warm tier (or directly to the
// spill queue when the warm tier is disabled): T1's demotion. An existing
// frame for the same key is replaced. Rows are copied by encoding — the
// caller keeps ownership of row.
func (s *Store) put(key Key, row []matrix.Dist) {
	if len(row) != s.cfg.N {
		return
	}
	buf := s.encode(key.Src, row)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.placeLocked(key, buf)
	s.evictWarmLocked()
}

// get removes and decodes the warm or cold frame for key, returning a
// freshly allocated row and the tier it came from, or (nil, TierNone).
// Promotion is exclusive, so the frame leaves the store; a cold frame is
// read into pooled scratch, which the decode releases. A frame that
// fails to decode (corrupt arena record, missing dictionary) counts a
// decode error and reports a miss; the caller re-solves.
func (s *Store) get(key Key) ([]matrix.Dist, Tier) {
	s.mu.Lock()
	e, ok := s.index[key]
	if !ok || s.closed {
		s.mu.Unlock()
		return nil, TierNone
	}
	var (
		buf     []byte
		tier    Tier
		scratch *[]byte
	)
	switch e.state {
	case stateWarm, stateSpilling:
		buf = e.buf
		tier = TierWarm
		s.removeLocked(e)
		s.mu.Unlock()
	case stateCold:
		tier = TierCold
		// Snapshot offset, on-disk key, and compaction generation under
		// s.mu (compaction also runs under s.mu, so the three are
		// consistent); the read outside the lock rejects the offset if a
		// compact lands in between, and the caller re-solves.
		off, plen, diskKey := e.off, e.length, e.diskKey
		gen := s.arena.generation()
		s.removeLocked(e)
		s.mu.Unlock()
		scratch = s.encPool.Get().(*[]byte)
		var err error
		buf, err = s.arena.read(off, plen, diskKey, gen, (*scratch)[:0])
		if err != nil {
			s.encPool.Put(scratch)
			s.decodeErrs.Add(1)
			return nil, TierNone
		}
	}
	row, err := s.decode(buf, nil)
	if scratch != nil {
		s.encPool.Put(scratch)
	}
	if err != nil {
		s.decodeErrs.Add(1)
		return nil, TierNone
	}
	return row, tier
}

// RecStats is one Reconcile's ledger over every tier: Scanned ==
// Retagged + Repaired + Dropped, RepairedLabels sums what repair
// returned, and Aged counts frames of versions older than the mutating
// one (no query can reach them once the new version publishes; they are
// discarded without classification).
type RecStats struct {
	Scanned, Retagged, Repaired, RepairedLabels, Dropped, Aged int
}

// Reconcile carries the rows at oldVer over to newVer during a mutation's
// pre-publish window, T1 first: judge classifies each row, repair fixes a
// Repair-classified row in place and returns the labels it lowered, and a
// Drop verdict leaves the row behind. T1 keeps its oldVer rows for
// readers still pinned to that version and installs the carried rows
// beside them. Warm and cold frames are retagged or repaired in place —
// a retag re-encodes nothing (frame bytes are content-addressed by the
// reference dictionary, not the version) and cold frames retag without
// touching the disk — and frames older than oldVer age out. No Load can
// run at newVer before the caller publishes it, so no flight races the
// installs.
func (s *Store) Reconcile(oldVer, newVer uint64, judge func(row []matrix.Dist) Verdict, repair func(row []matrix.Dist) int) RecStats {
	var st RecStats
	evicted := s.reconcileHot(oldVer, newVer, judge, repair, &st)
	s.reconcileFrames(oldVer, newVer, judge, repair, &st)
	// Rows the T1 installs evicted demote only now, so the frame loop
	// neither rescans them nor carries an oldVer frame onto a key T1
	// already holds at newVer.
	s.demote(evicted)
	l := &s.led
	l.scanned.Add(int64(st.Scanned))
	l.retagged.Add(int64(st.Retagged))
	l.repaired.Add(int64(st.Repaired))
	l.repairedLabels.Add(int64(st.RepairedLabels))
	l.dropped.Add(int64(st.Dropped))
	l.aged.Add(int64(st.Aged))
	return st
}

// reconcileFrames is Reconcile's warm/cold pass. It holds mu throughout,
// never hotMu, so T1 hits proceed while it runs.
func (s *Store) reconcileFrames(oldVer, newVer uint64, judge func([]matrix.Dist) Verdict, repair func([]matrix.Dist) int, st *RecStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	keys := make([]Key, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	rowp := s.rowPool.Get().(*[]matrix.Dist)
	defer s.rowPool.Put(rowp)
	var colds []byte
	// Compaction runs under s.mu too, so one generation snapshot covers
	// every cold read below.
	var gen uint64
	if s.arena != nil {
		gen = s.arena.generation()
	}
	for _, k := range keys {
		e := s.index[k]
		if e == nil {
			continue
		}
		if k.Ver != oldVer {
			if k.Ver < oldVer {
				s.removeLocked(e)
				st.Aged++
			}
			continue
		}
		st.Scanned++
		buf := e.buf
		if e.state == stateCold {
			var err error
			colds, err = s.arena.read(e.off, e.length, e.diskKey, gen, colds)
			if err != nil {
				s.removeLocked(e)
				s.decodeErrs.Add(1)
				st.Dropped++
				continue
			}
			buf = colds
		}
		row, err := s.decode(buf, *rowp)
		if err != nil {
			s.removeLocked(e)
			s.decodeErrs.Add(1)
			st.Dropped++
			continue
		}
		*rowp = row
		switch judge(row) {
		case Keep:
			s.retagLocked(e, Key{Src: k.Src, Ver: newVer})
			st.Retagged++
		case Repair:
			st.RepairedLabels += repair(row)
			s.removeLocked(e)
			s.placeLocked(Key{Src: k.Src, Ver: newVer}, s.encode(k.Src, row))
			st.Repaired++
		default:
			s.removeLocked(e)
			st.Dropped++
		}
	}
	s.evictWarmLocked()
}

// placeLocked is the store's one placement rule for a new frame, used by
// T1's demotion (put) and Reconcile's repair path: it replaces any frame
// under key, then admits buf to the warm tier when that tier is enabled,
// else to the spill queue when the arena is open, else drops it. The
// caller holds mu and trims the warm tier afterwards.
func (s *Store) placeLocked(key Key, buf []byte) {
	if old, ok := s.index[key]; ok {
		s.removeLocked(old)
	}
	e := &entry{key: key, buf: buf}
	if s.cfg.WarmBytes > 0 {
		e.state = stateWarm
		s.index[key] = e
		e.elem = s.warmLRU.PushFront(e)
		s.warm += int64(len(buf))
		return
	}
	if s.arena == nil {
		return
	}
	e.state = stateSpilling
	s.index[key] = e
	s.enqueueSpillLocked(e)
}

// retagLocked rebinds an entry to a new key, preserving its tier
// residency and recency.
func (s *Store) retagLocked(e *entry, key Key) {
	if old, ok := s.index[key]; ok && old != e {
		s.removeLocked(old)
	}
	delete(s.index, e.key)
	e.key = key
	s.index[key] = e
}

// removeLocked unlinks an entry from the index, its LRU list, and the
// byte accounting. Spill-queued entries are flagged so the writeback
// goroutine discards them.
func (s *Store) removeLocked(e *entry) {
	delete(s.index, e.key)
	switch e.state {
	case stateWarm:
		if e.elem != nil {
			s.warmLRU.Remove(e.elem)
			e.elem = nil
		}
		s.warm -= int64(len(e.buf))
	case stateSpilling:
		e.dropped = true
	case stateCold:
		if e.elem != nil {
			s.coldLRU.Remove(e.elem)
			e.elem = nil
		}
		s.cold -= int64(e.length)
	}
}

// evictWarmLocked demotes the oldest warm frames past the byte budget:
// into the spill queue when the arena is enabled, else dropped.
func (s *Store) evictWarmLocked() {
	for s.warm > s.cfg.WarmBytes && s.warmLRU.Len() > 0 {
		e := s.warmLRU.Remove(s.warmLRU.Back()).(*entry)
		e.elem = nil
		s.warm -= int64(len(e.buf))
		if s.arena == nil {
			delete(s.index, e.key)
			continue
		}
		e.state = stateSpilling
		s.enqueueSpillLocked(e)
	}
}

// enqueueSpillLocked hands an entry to the writeback goroutine. The
// queue is a mu-guarded list, so no eviction burst can outrun a bounded
// channel; memory stays bounded by the byte cap below — past it the
// producer appends to the arena inline (a ~µs pwrite) instead of
// queueing or dropping, which doubles as backpressure on single-CPU
// hosts where the writeback goroutine may not be scheduled mid-burst.
// spill_dropped now counts only frames abandoned on arena write errors.
func (s *Store) enqueueSpillLocked(e *entry) {
	maxQueued := s.cfg.WarmBytes
	if maxQueued < 1<<20 {
		maxQueued = 1 << 20
	}
	if s.queued > maxQueued {
		off, err := s.arena.append(e.key, e.buf)
		if err != nil {
			delete(s.index, e.key)
			s.spillDrops.Add(1)
			return
		}
		e.state = stateCold
		e.off = off
		e.length = int32(len(e.buf))
		e.diskKey = e.key
		e.buf = nil
		e.elem = s.coldLRU.PushFront(e)
		s.cold += int64(e.length)
		s.evictColdLocked()
		return
	}
	s.spillQ.PushBack(e)
	s.queued += int64(len(e.buf))
	s.spillCond.Signal()
}

// evictColdLocked drops the oldest cold index entries past the live-byte
// budget. The arena bytes become dead; compaction reclaims them when the
// dead fraction grows (see writeback).
func (s *Store) evictColdLocked() {
	for s.cold > s.cfg.SpillBytes && s.coldLRU.Len() > 0 {
		e := s.coldLRU.Remove(s.coldLRU.Back()).(*entry)
		e.elem = nil
		delete(s.index, e.key)
		s.cold -= int64(e.length)
	}
}

// writeback is the async spill goroutine: it appends queued frames to the
// arena, flips them to cold, trims the cold tier, and compacts the arena
// file when dead bytes dominate. On Close it discards whatever is still
// queued (the spill tier is a cache, not a durability log) and exits.
func (s *Store) writeback() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for s.spillQ.Len() == 0 && !s.closed {
			s.spillCond.Wait()
		}
		if s.spillQ.Len() == 0 {
			s.mu.Unlock()
			return
		}
		e := s.spillQ.Remove(s.spillQ.Front()).(*entry)
		s.queued -= int64(len(e.buf))
		if e.dropped || s.closed {
			if !e.dropped && s.index[e.key] == e {
				delete(s.index, e.key)
			}
			continue
		}
		key, buf := e.key, e.buf
		s.mu.Unlock()

		start := time.Now()
		off, err := s.arena.append(key, buf)
		s.spillTime.Observe(time.Since(start).Nanoseconds())

		s.mu.Lock()
		if err != nil || e.dropped || s.closed || s.index[e.key] != e {
			if !e.dropped && s.index[e.key] == e {
				delete(s.index, e.key)
				if err != nil {
					s.spillDrops.Add(1)
				}
			}
			continue
		}
		e.state = stateCold
		e.off = off
		e.length = int32(len(buf))
		e.diskKey = key
		e.buf = nil
		e.elem = s.coldLRU.PushFront(e)
		s.cold += int64(e.length)
		s.evictColdLocked()
		s.maybeCompactLocked()
	}
}

// maybeCompactLocked rewrites the arena when dead bytes exceed both the
// live budget and a fixed floor, keeping the file bounded near the
// configured spill budget.
func (s *Store) maybeCompactLocked() {
	const compactFloor = 4 << 20
	deadBytes := s.arenaSize() - s.cold - arenaHeaderLen - int64(recordHeaderLen*s.coldLRU.Len())
	if deadBytes < compactFloor || deadBytes < s.cfg.SpillBytes {
		return
	}
	live := make([]recoveredRecord, 0, s.coldLRU.Len())
	for el := s.coldLRU.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		live = append(live, recoveredRecord{key: e.key, off: e.off, len: e.length})
	}
	moved, err := s.arena.compact(live)
	if err != nil {
		return // keep serving from the old file; retry on the next spill
	}
	for el := s.coldLRU.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if noff, ok := moved[e.off]; ok {
			e.off = noff
		}
	}
	s.compacts.Add(1)
}

func (s *Store) arenaSize() int64 {
	s.arena.mu.Lock()
	defer s.arena.mu.Unlock()
	return s.arena.size
}

// Stats is a point-in-time residency snapshot for /healthz and
// serve.Server.StoreStats.
type Stats struct {
	HotRows   int
	HotBytes  int64
	WarmRows  int
	WarmBytes int64
	ColdRows  int
	ColdBytes int64
	ArenaFile int64 // arena file size on disk (0 when spill is off)
}

// Snapshot returns the current residency stats.
func (s *Store) Snapshot() Stats {
	s.hotMu.Lock()
	st := Stats{HotRows: s.hotLRU.Len(), HotBytes: s.hotBytes}
	s.hotMu.Unlock()
	s.mu.Lock()
	st.WarmRows, st.WarmBytes = s.warmLRU.Len(), s.warm
	st.ColdRows, st.ColdBytes = s.coldLRU.Len(), s.cold
	s.mu.Unlock()
	if s.arena != nil {
		st.ArenaFile = s.arenaSize()
	}
	return st
}

// Close stops the writeback goroutine and closes the arena. The store
// refuses new work afterwards; Close is idempotent.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.spillCond != nil {
		s.spillCond.Broadcast()
	}
	s.mu.Unlock()
	if s.spillCond != nil {
		s.wg.Wait()
	}
	if s.arena != nil {
		s.arena.close()
	}
}
