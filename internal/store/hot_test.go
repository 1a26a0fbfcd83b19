package store

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"parapsp/internal/matrix"
)

// noSolve fails the test if a Load reaches its solve callback.
func noSolve(t *testing.T) SolveFunc {
	return func(srcs []int32) ([][]matrix.Dist, error) {
		t.Errorf("solve called for %v", srcs)
		return nil, errors.New("unexpected solve")
	}
}

// solveWith returns a SolveFunc answering every source with row.
func solveWith(row []matrix.Dist) SolveFunc {
	return func(srcs []int32) ([][]matrix.Dist, error) {
		rows := make([][]matrix.Dist, len(srcs))
		for i := range rows {
			rows[i] = row
		}
		return rows, nil
	}
}

// waitUntil polls cond for up to 10 s and reports whether it held. The
// caller releases what it holds before failing the test on false.
func waitUntil(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func sameRow(t *testing.T, what string, got, want []matrix.Dist) {
	t.Helper()
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: entry %d = %d, want %d", what, j, got[j], want[j])
		}
	}
}

// TestReconcileFrameLoopNeverStallsHotHits parks Reconcile inside its
// warm/cold frame loop and checks that a Load of a T1-resident key at the
// old version still returns: T1 hits never wait on the frame loop.
func TestReconcileFrameLoopNeverStallsHotHits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 64
	s := mustOpen(t, Config{N: n, HotBytes: 8 * int64(n) * 4, WarmBytes: 1 << 20})
	ctx := context.Background()
	hot, warm := genRow(rng, n, "grid"), genRow(rng, n, "grid")
	hot[0], warm[0] = 1, 7 // the judge parks on the warm row only
	if _, err := s.Load(ctx, 1, 0, []int32{0}, solveWith(hot)); err != nil {
		t.Fatal(err)
	}
	s.put(Key{Src: 1, Ver: 1}, warm)

	parked, release := make(chan struct{}), make(chan struct{})
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark()
	done := make(chan RecStats, 1)
	go func() {
		done <- s.Reconcile(1, 2, func(row []matrix.Dist) Verdict {
			if row[0] == 7 {
				close(parked)
				<-release
			}
			return Keep
		}, nil)
	}()
	<-parked

	got := make(chan []matrix.Dist, 1)
	go func() {
		rows, err := s.Load(ctx, 1, 0, []int32{0}, noSolve(t))
		if err != nil {
			t.Error(err)
			rows = [][]matrix.Dist{nil}
		}
		got <- rows[0]
	}()
	select {
	case row := <-got:
		sameRow(t, "T1 row at the old version", row, hot)
	case <-time.After(10 * time.Second):
		t.Fatal("a T1 hit waited on Reconcile's frame loop")
	}

	unpark()
	if st := <-done; st.Scanned != 2 || st.Retagged != 2 {
		t.Fatalf("reconcile over T1 and T2: %+v, want 2 scanned and retagged", st)
	}
	rows, err := s.Load(ctx, 2, 0, []int32{0, 1}, noSolve(t))
	if err != nil {
		t.Fatal(err)
	}
	sameRow(t, "carried T1 row", rows[0], hot)
	sameRow(t, "retagged T2 row", rows[1], warm)
}

// TestLoadCoalescesWarmPromote starts 16 same-class Loads of a key held
// only in T2 while the owner is parked inside its promote: the frame is
// decoded once, solve never runs, and the other 15 lookups count as
// coalesced T1 hits.
func TestLoadCoalescesWarmPromote(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 64
	s := mustOpen(t, Config{N: n, HotBytes: 4 * int64(n) * 4, WarmBytes: 1 << 20})
	want := genRow(rng, n, "powerlaw")
	s.put(Key{Src: 3, Ver: 1}, want)

	const loaders = 16
	rows := make([][]matrix.Dist, loaders)
	var wg sync.WaitGroup
	// Holding the warm/cold lock parks the owner inside get, so every
	// other Load meets its flight.
	s.mu.Lock()
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := s.Load(context.Background(), 1, 0, []int32{3}, noSolve(t))
			if err != nil {
				t.Error(err)
				return
			}
			rows[i] = got[0]
		}(i)
	}
	joined := waitUntil(func() bool { return s.led.coalesced.Load() == loaders-1 })
	s.mu.Unlock()
	wg.Wait()
	if !joined {
		t.Fatalf("%d of %d Loads joined the flight", s.led.coalesced.Load(), loaders-1)
	}

	for i, row := range rows {
		if row == nil {
			t.Fatalf("load %d returned no row", i)
		}
		sameRow(t, "promoted row", row, want)
	}
	l := &s.led
	if got := l.found[TierWarm].Load(); got != 1 {
		t.Fatalf("t2_promotes = %d, want one decode", got)
	}
	if l.found[TierNone].Load() != 0 || l.found[TierCold].Load() != 0 {
		t.Fatalf("misses = %d, t3_promotes = %d, want 0", l.found[TierNone].Load(), l.found[TierCold].Load())
	}
	if l.found[TierHot].Load() != loaders-1 || l.rowLookups.Load() != loaders {
		t.Fatalf("t1_hits = %d of %d lookups, want %d of %d",
			l.found[TierHot].Load(), l.rowLookups.Load(), loaders-1, loaders)
	}
}

// blockedSolve returns a SolveFunc that signals entered, then waits for
// release and answers with row, or with err when err is non-nil.
func blockedSolve(entered, release chan struct{}, row []matrix.Dist, err error) SolveFunc {
	return func(srcs []int32) ([][]matrix.Dist, error) {
		close(entered)
		<-release
		if err != nil {
			return nil, err
		}
		return solveWith(row)(srcs)
	}
}

// TestLoadSolveErrorReachesWaiters fails a solve while a same-class Load
// waits on it: both get the error, no flight is left behind, and the next
// Load retries the solve.
func TestLoadSolveErrorReachesWaiters(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 32
	s := mustOpen(t, Config{N: n, HotBytes: 4 * int64(n) * 4})
	ctx := context.Background()
	row := genRow(rng, n, "grid")
	boom := errors.New("solve failed")

	entered, fail := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, err := s.Load(ctx, 1, 0, []int32{5}, blockedSolve(entered, fail, nil, boom))
		errs <- err
	}()
	<-entered
	go func() {
		_, err := s.Load(ctx, 1, 0, []int32{5}, noSolve(t))
		errs <- err
	}()
	joined := waitUntil(func() bool { return s.led.coalesced.Load() == 1 })
	close(fail)
	if !joined {
		t.Fatal("the waiter never joined the flight")
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the solve error", err)
		}
	}
	s.hotMu.Lock()
	left := len(s.flights)
	s.hotMu.Unlock()
	if left != 0 {
		t.Fatalf("%d flights left after the failed solve", left)
	}
	var solved int
	retry := func(srcs []int32) ([][]matrix.Dist, error) {
		solved++
		return solveWith(row)(srcs)
	}
	got, err := s.Load(ctx, 1, 0, []int32{5}, retry)
	if err != nil || solved != 1 {
		t.Fatalf("retry: err %v after %d solves, want one solve", err, solved)
	}
	sameRow(t, "retried row", got[0], row)
}

// TestLoadClassesDoNotWait holds a class-0 solve open while a class-1 Load
// of the same key runs its own solve and returns; the finished row is
// class-blind, so class 0 then hits T1.
func TestLoadClassesDoNotWait(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 32
	s := mustOpen(t, Config{N: n, HotBytes: 4 * int64(n) * 4})
	ctx := context.Background()
	row := genRow(rng, n, "grid")

	entered, release := make(chan struct{}), make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	owner := make(chan error, 1)
	go func() {
		_, err := s.Load(ctx, 1, 0, []int32{6}, blockedSolve(entered, release, row, nil))
		owner <- err
	}()
	<-entered
	other, err := s.Load(ctx, 1, 1, []int32{6}, solveWith(row))
	if err != nil {
		t.Fatal(err)
	}
	sameRow(t, "class-1 row", other[0], row)
	unblock()
	if err := <-owner; err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(ctx, 1, 0, []int32{6}, noSolve(t)); err != nil {
		t.Fatal(err)
	}
	if st := s.Snapshot(); st.HotRows != 1 || st.HotBytes != rowBytes(row) {
		t.Fatalf("T1 after two classes landed one key: %+v, want one row", st)
	}
}
