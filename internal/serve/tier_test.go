package serve

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"parapsp/internal/baseline"
	"parapsp/internal/obs"
)

// TestWarmTierPromoteExact drives the hot tier far past its byte budget,
// then re-queries the evicted sources: every answer must still be
// Floyd-Warshall exact (the row came back through a decode, not a
// re-solve), the warm tier must actually serve promotions, and the
// store ledger must reconcile.
func TestWarmTierPromoteExact(t *testing.T) {
	g := testGraph(t, 140, 19)
	truth := baseline.FloydWarshall(g)
	n := int64(g.N())
	s := newTestServer(t, g, Config{
		Workers:    2,
		CacheBytes: 4 * n * 4, // four uncompressed rows
		Landmarks:  8,
	})

	// First pass: solve (and mostly evict) 60 source rows.
	for u := int32(0); u < 60; u++ {
		if err := stressExact(s, truth, u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.StoreStats(); st.WarmRows == 0 {
		t.Fatal("no rows demoted into the warm tier")
	}
	// Second pass: the hot tier holds at most 4 of the 60, so most hits
	// must come back through warm-tier promotion.
	for u := int32(0); u < 60; u++ {
		if err := stressExact(s, truth, u, (u*7)%int32(n)); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Metrics().Snapshot()
	if snap["serve.store.t2_promotes"] == 0 {
		t.Fatalf("no warm-tier promotions: %+v", snap)
	}
	want := snap["serve.store.sketch_answered"] + snap["serve.store.t1_hits"] +
		snap["serve.store.t2_promotes"] + snap["serve.store.t3_promotes"] + snap["serve.store.misses"]
	if snap["serve.store.lookups"] != want {
		t.Fatalf("store ledger does not reconcile: lookups=%d, sum=%d", snap["serve.store.lookups"], want)
	}
	if hot := s.StoreStats().HotBytes; hot > 4*n*4 {
		t.Fatalf("hot tier exceeds its byte budget: %d > %d", hot, 4*n*4)
	}
}

// TestSpillRoundTripAndRecovery exercises the full T1->T2->T3 demotion
// chain through the server, then restarts the server on the same spill
// directory and checks the cold tier warm-starts from the recovered
// frames — with every promoted answer still exact.
func TestSpillRoundTripAndRecovery(t *testing.T) {
	g := testGraph(t, 160, 23)
	truth := baseline.FloydWarshall(g)
	n := int64(g.N())
	dir := t.TempDir()
	cfg := Config{
		Workers:    2,
		CacheBytes: 2 * n * 4, // two hot rows
		WarmBytes:  1500,      // a handful of compressed frames
		SpillBytes: 1 << 20,
		SpillDir:   dir,
		OraclePath: filepath.Join(dir, "oracle.bin"),
		Landmarks:  8,
	}
	cfg.Metrics = obs.NewMetrics()
	s, err := New(g, cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	for u := int32(0); u < int32(n); u++ {
		if err := stressExact(s, truth, u, (u+3)%int32(n)); err != nil {
			t.Fatal(err)
		}
	}
	// Spill is async: wait for the writeback goroutine to land frames.
	deadline := time.Now().Add(10 * time.Second)
	for s.StoreStats().ColdRows == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no frames reached the cold tier: %+v", s.StoreStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Re-query early sources: they were evicted from hot and warm, so the
	// answers must come back through cold-tier promotion, still exact.
	for u := int32(0); u < 40; u++ {
		if err := stressExact(s, truth, u, (u*11)%int32(n)); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Metrics().Snapshot()
	if snap["serve.store.t3_promotes"] == 0 {
		t.Fatalf("no cold-tier promotions: %+v", snap)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The oracle file must exist and survive the restart unchanged.
	oracleInfo, err := os.Stat(cfg.OraclePath)
	if err != nil {
		t.Fatalf("oracle not persisted: %v", err)
	}

	// Restart on the same directory: the arena recovery seeds the cold
	// tier and the oracle loads instead of rebuilding.
	cfg2 := cfg
	cfg2.Metrics = obs.NewMetrics()
	s2, err := New(g, cfg2)
	if err != nil {
		t.Fatalf("serve.New (restart): %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s2.Shutdown(ctx); err != nil {
			t.Errorf("shutdown (restart): %v", err)
		}
	}()
	snap2 := s2.Metrics().Snapshot()
	if snap2["store.recovered_frames"] == 0 {
		t.Fatal("restart recovered no frames from the arena")
	}
	if st := s2.StoreStats(); st.ColdRows == 0 {
		t.Fatalf("restart did not warm-start the cold tier: %+v", st)
	}
	if info2, err := os.Stat(cfg.OraclePath); err != nil || info2.ModTime() != oracleInfo.ModTime() || info2.Size() != oracleInfo.Size() {
		t.Fatalf("oracle was rebuilt instead of loaded (err=%v)", err)
	}
	// Recovered frames must decode into exact answers without a solve.
	for u := int32(0); u < int32(n); u += 5 {
		if err := stressExact(s2, truth, u, (u+1)%int32(n)); err != nil {
			t.Fatal(err)
		}
	}
	snap2 = s2.Metrics().Snapshot()
	if snap2["serve.store.t3_promotes"] == 0 {
		t.Fatal("restarted server answered nothing from the recovered cold tier")
	}
	if snap2["store.decode_errors"] != 0 {
		t.Fatalf("recovered frames failed to decode %d times", snap2["store.decode_errors"])
	}
}

// TestSketchAnswersSkipTiers pins the sketch-first contract: a tol>0
// query certified by the landmark bounds is answered without touching
// any row tier — no lookups against the hot cache, no solves.
func TestSketchAnswersSkipTiers(t *testing.T) {
	g := testGraph(t, 120, 29)
	s := newTestServer(t, g, Config{Workers: 2, CacheBytes: rowsBudget(g, 16), Landmarks: 12})
	ctx := context.Background()

	// A landmark-to-anywhere query has lower == upper, so any tol
	// certifies it; sweep until one sketch answer lands.
sweep:
	for u := int32(0); u < int32(g.N()); u++ {
		for v := int32(0); v < int32(g.N()); v++ {
			if u == v {
				continue
			}
			ans, _, err := dist(ctx, s, u, v, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if !ans.Exact {
				break sweep
			}
		}
	}
	snap := s.Metrics().Snapshot()
	if snap["serve.store.sketch_answered"] == 0 {
		t.Skip("no query certified against this graph; nothing to assert")
	}
	if snap["serve.store.sketch_answered"]+snap["serve.store.t1_hits"]+
		snap["serve.store.t2_promotes"]+snap["serve.store.t3_promotes"]+
		snap["serve.store.misses"] != snap["serve.store.lookups"] {
		t.Fatalf("store ledger broken on sketch path: %+v", snap)
	}
}
