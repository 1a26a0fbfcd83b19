package core

import (
	"errors"
	"testing"

	"parapsp/internal/gen"
	"parapsp/internal/graph"
	"parapsp/internal/obs"
)

// gridGraph builds an rows×cols 4-neighbor lattice with unit weights —
// the mesh-shaped counterpoint to the power-law generators: near-uniform
// degree, large diameter, no hubs for the ordering to exploit.
func gridGraph(t *testing.T, rows, cols int) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{From: id(r, c), To: id(r, c+1), W: 1})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{From: id(r, c), To: id(r+1, c), W: 1})
			}
		}
	}
	g, err := graph.FromEdges(rows*cols, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestObsDifferential is the satellite differential test: instrumenting a
// solve must not change its answer. For power-law and grid inputs, every
// algorithm × worker-count combination must produce a Checksum()
// bit-identical to the uninstrumented run, and the metrics registry must
// mirror that run's Stats exactly. Work counters themselves are only
// compared at one worker: row reuse is opportunistic on the completion
// flags, so at w>1 the amount of folding is timing-dependent and
// instrumentation may legitimately shift it (the fixpoint never moves).
func TestObsDifferential(t *testing.T) {
	pl, err := gen.BarabasiAlbert(300, 3, 7, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"powerlaw", pl},
		{"grid", gridGraph(t, 17, 18)},
	}
	for _, tc := range graphs {
		n := tc.g.N()
		for _, alg := range []Algorithm{SeqOptimized, ParAlg1, ParAPSP} {
			for _, workers := range []int{1, 2, 8} {
				if alg == SeqOptimized && workers != 1 {
					continue
				}
				plain, err := Solve(tc.g, alg, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%v/w=%d plain: %v", tc.name, alg, workers, err)
				}
				rec := obs.New(workers)
				traced, err := Solve(tc.g, alg, Options{Workers: workers, Obs: rec})
				if err != nil {
					t.Fatalf("%s/%v/w=%d traced: %v", tc.name, alg, workers, err)
				}
				rec.Stop()
				if p, q := plain.D.Checksum(), traced.D.Checksum(); p != q {
					t.Errorf("%s/%v/w=%d: checksum %x (plain) != %x (traced)", tc.name, alg, workers, p, q)
				}
				if workers == 1 && plain.Stats != traced.Stats {
					t.Errorf("%s/%v/w=1: sequential stats diverged\nplain:  %+v\ntraced: %+v",
						tc.name, alg, plain.Stats, traced.Stats)
				}
				snap := rec.Metrics().Snapshot()
				c := traced.Stats
				for _, chk := range []struct {
					key  string
					want int64
				}{
					{"core.pops", c.Pops},
					{"core.folds", c.Folds},
					{"core.fold_batches", c.FoldBatches},
					{"core.folds_skipped", c.FoldsSkipped},
					{"core.fold_entries_skipped", c.FoldEntriesSkipped},
					{"core.edge_scans", c.EdgeScans},
					{"core.edge_updates", c.EdgeUpdates},
					{"core.enqueues", c.Enqueues},
					{"core.sources", int64(n)},
				} {
					if snap[chk.key] != chk.want {
						t.Errorf("%s/%v/w=%d: metric %s = %d, want %d",
							tc.name, alg, workers, chk.key, snap[chk.key], chk.want)
					}
				}
				// The scheduler dispatches each source exactly once.
				if workers > 1 {
					if got := snap["sched.iterations"]; got != int64(n) {
						t.Errorf("%s/%v/w=%d: sched.iterations = %d, want %d",
							tc.name, alg, workers, got, n)
					}
				}
			}
		}
	}
}

// TestObsChecksumAcrossWorkers: the instrumented ParAPSP run must reach
// the same fixpoint at 1, 2 and 8 workers — bit-identical Checksum().
// Raw work totals are timing-dependent in parallel (opportunistic row
// reuse), but the structural relations between them are not: every
// enqueue is a successful relaxation, and folds happen only at pops.
func TestObsChecksumAcrossWorkers(t *testing.T) {
	g, err := gen.BarabasiAlbert(250, 4, 11, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	var baseSum uint64
	for k, workers := range []int{1, 2, 8} {
		rec := obs.New(workers)
		res, err := Solve(g, ParAPSP, Options{Workers: workers, Obs: rec})
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if k == 0 {
			baseSum = res.D.Checksum()
		} else if got := res.D.Checksum(); got != baseSum {
			t.Errorf("w=%d checksum %x, want %x", workers, got, baseSum)
		}
		c := res.Stats
		if c.EdgeUpdates != c.Enqueues {
			t.Errorf("w=%d: EdgeUpdates %d != Enqueues %d", workers, c.EdgeUpdates, c.Enqueues)
		}
		if c.Folds+c.FoldsSkipped > c.Pops {
			t.Errorf("w=%d: folds %d + skipped %d exceed pops %d",
				workers, c.Folds, c.FoldsSkipped, c.Pops)
		}
		if c.Pops < int64(g.N()) {
			t.Errorf("w=%d: only %d pops for %d sources", workers, c.Pops, g.N())
		}
	}
}

// TestObsUndersizedRecorder: handing Solve a recorder with fewer lanes
// than workers must fail fast with ErrInvalid, not index out of range.
func TestObsUndersizedRecorder(t *testing.T) {
	g := gridGraph(t, 4, 4)
	_, err := Solve(g, ParAPSP, Options{Workers: 4, Obs: obs.New(2)})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}

// TestObsRecordsPhases: an instrumented parallel solve leaves ordering
// and SSSP spans on the coordinator lane and per-source iteration events
// on the worker lanes.
func TestObsRecordsPhases(t *testing.T) {
	g, err := gen.BarabasiAlbert(120, 3, 3, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewWithCapacity(4, 1024)
	if _, err := Solve(g, ParAPSP, Options{Workers: 4, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	rec.Stop()
	var ordering, sssp, iters, drains int
	for _, e := range rec.Events() {
		switch e.Phase {
		case obs.PhaseOrdering:
			ordering++
		case obs.PhaseSSSP:
			sssp++
		case obs.PhaseIter:
			iters++
		case obs.PhaseFoldDrain:
			drains++
		}
		if e.End < e.Start {
			t.Errorf("event %+v ends before it starts", e)
		}
	}
	if ordering != 1 || sssp != 1 {
		t.Errorf("coordinator spans: ordering=%d sssp=%d, want 1 and 1", ordering, sssp)
	}
	if iters != g.N() {
		t.Errorf("%d iteration events, want %d", iters, g.N())
	}
	if drains == 0 {
		t.Error("no fold-drain spans recorded on a power-law graph")
	}
}
