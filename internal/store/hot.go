package store

import (
	"container/list"
	"context"
	"time"

	"parapsp/internal/matrix"
)

// hotRow is one uncompressed row resident in T1. Rows are immutable once
// installed: eviction unlinks the entry but never touches the slice, so a
// reader holding the row keeps a valid snapshot.
type hotRow struct {
	key  Key
	row  []matrix.Dist
	elem *list.Element
}

// flight is one in-flight promote-or-solve of a key for one class. The
// owner sets row or err before closing done; waiters read them after.
type flight struct {
	row  []matrix.Dist
	err  error
	done chan struct{}
}

type flightKey struct {
	key   Key
	class uint8
}

// SolveFunc computes the rows of srcs, in order, at the version a Load
// was called for. The store keeps the returned rows (N entries each) as
// immutable T1 rows, so they must not alias memory the caller reuses.
type SolveFunc func(srcs []int32) ([][]matrix.Dist, error)

// rowBytes is the T1 cost of one row.
func rowBytes(row []matrix.Dist) int64 { return int64(len(row)) * 4 }

// Load returns the rows of srcs at version ver, in order. Each key is
// looked up in T1, then among the in-flight lookups of the same class,
// then promoted from T2/T3; solve is called at most once, outside every
// store lock, with the keys that no tier and no flight holds. Concurrent
// Loads of one key and class share one promotion or solve. Flights are
// keyed by class, so one class never waits on another's flight, while
// finished rows are class-blind. The returned rows are immutable and
// shared.
//
// Every occurrence of a hot key counts one lookup; any other key counts
// once per call, and its repeats ride the first occurrence. A solve
// error reaches every waiter and clears its flights, so the next Load
// retries. A Load whose ctx ends while it waits on another Load's flight
// returns ctx.Err().
func (s *Store) Load(ctx context.Context, ver uint64, class uint8, srcs []int32, solve SolveFunc) ([][]matrix.Dist, error) {
	out := make([][]matrix.Dist, len(srcs))
	var (
		flights map[int32]*flight // every non-hot source: the flight it rides
		owned   []int32
		waits   []*flight
	)
	s.hotMu.Lock()
	for i, src := range srcs {
		if _, seen := flights[src]; seen {
			continue
		}
		s.led.lookups.Add(1)
		s.led.rowLookups.Add(1)
		key := Key{Src: src, Ver: ver}
		if h, ok := s.hot[key]; ok {
			s.hotLRU.MoveToFront(h.elem)
			s.led.found[TierHot].Add(1)
			out[i] = h.row
			continue
		}
		if flights == nil {
			flights = make(map[int32]*flight)
		}
		fk := flightKey{key: key, class: class}
		if f, ok := s.flights[fk]; ok {
			s.led.found[TierHot].Add(1)
			s.led.coalesced.Add(1)
			flights[src] = f
			waits = append(waits, f)
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.flights[fk] = f
		flights[src] = f
		owned = append(owned, src)
	}
	s.hotMu.Unlock()

	var promoted, cold []int32
	for _, src := range owned {
		start := time.Now()
		row, tier := s.get(Key{Src: src, Ver: ver})
		s.led.found[tier].Add(1)
		if tier == TierNone {
			cold = append(cold, src)
			continue
		}
		s.led.promoteT[tier].ObserveSince(start)
		flights[src].row = row
		promoted = append(promoted, src)
	}
	// Promoted rows land before the solve runs, so their waiters do not
	// wait on it.
	s.land(ver, class, promoted, flights, nil)
	if len(cold) > 0 {
		rows, err := solve(cold)
		if err == nil {
			for j, src := range cold {
				flights[src].row = rows[j]
			}
		}
		s.land(ver, class, cold, flights, err)
		if err != nil {
			return nil, err
		}
	}
	for _, f := range waits {
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	for i, src := range srcs {
		if out[i] == nil {
			out[i] = flights[src].row
		}
	}
	return out, nil
}

// land completes this Load's flights for srcs: on success each row joins
// T1, then the waiters are released and the flights removed. Rows pushed
// past the T1 budget demote once hotMu is released.
func (s *Store) land(ver uint64, class uint8, srcs []int32, flights map[int32]*flight, err error) {
	if len(srcs) == 0 {
		return
	}
	s.hotMu.Lock()
	for _, src := range srcs {
		key := Key{Src: src, Ver: ver}
		f := flights[src]
		delete(s.flights, flightKey{key: key, class: class})
		if err != nil {
			f.err = err
		} else {
			s.installLocked(key, f.row)
		}
		close(f.done)
	}
	evicted := s.evictHotLocked()
	s.hotMu.Unlock()
	s.demote(evicted)
}

// installLocked makes row the T1 row of key, unless key is already hot —
// another class's flight landed it first; both rows are exact, and
// counting both would break the budget. A retagged row shares its slice
// with the older version's row and is counted once per version.
func (s *Store) installLocked(key Key, row []matrix.Dist) {
	if _, ok := s.hot[key]; ok {
		return
	}
	h := &hotRow{key: key, row: row}
	h.elem = s.hotLRU.PushFront(h)
	s.hot[key] = h
	s.hotBytes += rowBytes(row)
}

// evictHotLocked trims T1 to its byte budget, always keeping one row, and
// returns the evicted rows for demote.
func (s *Store) evictHotLocked() []*hotRow {
	var evicted []*hotRow
	for s.hotBytes > s.hotCap && s.hotLRU.Len() > 1 {
		h := s.hotLRU.Remove(s.hotLRU.Back()).(*hotRow)
		delete(s.hot, h.key)
		s.hotBytes -= rowBytes(h.row)
		evicted = append(evicted, h)
	}
	return evicted
}

// demote encodes rows evicted from T1 into the warm tier (or the spill
// queue); with both lower tiers off they are dropped. Callers must not
// hold hotMu: put takes mu.
func (s *Store) demote(evicted []*hotRow) {
	if s.cfg.WarmBytes <= 0 && s.arena == nil {
		return
	}
	for _, h := range evicted {
		start := time.Now()
		s.put(h.key, h.row)
		s.led.demotes.Add(1)
		s.led.demoteT.ObserveSince(start)
	}
}

// reconcileHot is Reconcile's T1 pass. The rows at oldVer stay for readers
// pinned to it; a kept row is installed at newVer sharing its slice, a
// repaired one as a repaired copy. judge and repair run outside hotMu.
// The rows the installs evict are returned for the caller to demote.
func (s *Store) reconcileHot(oldVer, newVer uint64, judge func([]matrix.Dist) Verdict, repair func([]matrix.Dist) int, st *RecStats) []*hotRow {
	var carry []hotRow
	s.hotMu.Lock()
	for key, h := range s.hot {
		if key.Ver == oldVer {
			carry = append(carry, hotRow{key: Key{Src: key.Src, Ver: newVer}, row: h.row})
		}
	}
	s.hotMu.Unlock()
	kept := carry[:0]
	for _, h := range carry {
		st.Scanned++
		switch judge(h.row) {
		case Keep:
			st.Retagged++
		case Repair:
			h.row = append([]matrix.Dist(nil), h.row...)
			st.RepairedLabels += repair(h.row)
			st.Repaired++
		default:
			st.Dropped++
			continue
		}
		kept = append(kept, h)
	}
	s.hotMu.Lock()
	for _, h := range kept {
		s.installLocked(h.key, h.row)
	}
	evicted := s.evictHotLocked()
	s.hotMu.Unlock()
	return evicted
}
