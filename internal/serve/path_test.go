package serve

import (
	"context"
	"fmt"
	"testing"

	"parapsp/internal/core"
	"parapsp/internal/dyn"
	"parapsp/internal/gen"
	"parapsp/internal/graph"
)

// TestPathPinnedMatchesLibrary pins that the daemon and the library share
// one path walk. On a directed weighted power-law graph, PathPinned must
// return exactly the vertex sequence core.Path gives over a core.Solve of
// the same graph, for every sampled pair. After an insert and a reweight
// it must match core.Path over a solve of the mutated graph, which also
// checks that the pinned reverse graph follows the version. The T1 budget
// holds 8 of the 60 sampled sources, so most rows answer from warm frames
// and the mutations reconcile them.
func TestPathPinnedMatchesLibrary(t *testing.T) {
	g, err := gen.PowerLawConfiguration(300, 2.5, 2, false, 29, gen.Weighting{Min: 1, Max: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, g, Config{Workers: 2, CacheBytes: rowsBudget(g, 8), Landmarks: -1})
	ctx := context.Background()
	n := int32(g.N())

	// compare walks every sampled pair through the server and through a
	// library solve of ref, and returns the library's paths in pair order.
	compare := func(ref *graph.Graph, version uint64) [][]int32 {
		t.Helper()
		res, err := core.Solve(ref, core.ParAPSP, core.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		rev := ref.Transpose()
		var paths [][]int32
		multiHop := 0
		for u := int32(0); u < n; u += 5 {
			row := res.D.Row(int(u))
			for v := int32(0); v < n; v += 3 {
				want := core.Path(rev, row, u, v)
				got, ans, _, ver, err := s.PathPinned(ctx, u, v)
				if err != nil {
					t.Fatalf("PathPinned(%d,%d): %v", u, v, err)
				}
				if ver != version {
					t.Fatalf("PathPinned(%d,%d) answered at version %d, want %d", u, v, ver, version)
				}
				if ans.Dist != distToJSON(row[v]) {
					t.Fatalf("version %d: dist(%d,%d) = %d, want %d", version, u, v, ans.Dist, distToJSON(row[v]))
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("version %d: /path %d->%d = %v, library walks %v", version, u, v, got, want)
				}
				if len(want) > 2 {
					multiHop++
				}
				paths = append(paths, want)
			}
		}
		if multiHop < 100 {
			t.Fatalf("version %d: only %d sampled pairs have a path of 2+ hops", version, multiHop)
		}
		t.Logf("version %d: %d sampled pairs, %d with a path of 2+ hops", version, len(paths), multiHop)
		return paths
	}
	before := compare(g, 1)

	// Insert a weight-1 shortcut over the longest sampled path that has no
	// direct arc, then raise the first arc of another multi-hop path out
	// of every shortest path.
	long, other := -1, -1
	for i, p := range before {
		if len(p) <= 2 || (long >= 0 && len(p) <= len(before[long])) {
			continue
		}
		if _, exists := g.ArcWeight(p[0], p[len(p)-1]); !exists {
			long = i
		}
	}
	for i, p := range before {
		if len(p) > 2 && p[0] != before[long][0] {
			other = i
			break
		}
	}
	lp, op := before[long], before[other]
	ops := []dyn.EdgeOp{
		{Op: dyn.OpInsert, U: lp[0], V: lp[len(lp)-1], W: 1},
		{Op: dyn.OpReweight, U: op[0], V: op[1], W: 1000},
	}
	mutated := g
	for _, op := range ops {
		if _, err := s.ApplyEdge(op); err != nil {
			t.Fatalf("ApplyEdge(%+v): %v", op, err)
		}
		mutated = applyReplica(t, mutated, op)
	}
	after := compare(mutated, 3)
	changed := 0
	for i, p := range after {
		if fmt.Sprint(p) != fmt.Sprint(before[i]) {
			changed++
		}
	}
	t.Logf("the insert %v and the reweight %v changed %d sampled paths", ops[0], ops[1], changed)
	if changed < 2 {
		t.Fatalf("the mutations changed %d sampled paths; the version check shows nothing", changed)
	}
	if got := after[long]; len(got) != 2 {
		t.Fatalf("path over the inserted shortcut %d->%d = %v", lp[0], lp[len(lp)-1], got)
	}
}
