package parapsp

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	g, err := GenerateBarabasiAlbert(300, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgParAPSP {
		t.Errorf("default algorithm = %v, want ParAPSP", res.Algorithm)
	}
	if res.D.N() != 300 {
		t.Fatalf("matrix size = %d", res.D.N())
	}
	if d := Diameter(res.D); d < 2 || d > 20 {
		t.Errorf("BA(300,3) diameter = %d; implausible", d)
	}
	if r := Radius(res.D); r == 0 || r > Diameter(res.D) {
		t.Errorf("radius = %d, diameter = %d", r, Diameter(res.D))
	}
	if apl := AveragePathLength(res.D); math.IsNaN(apl) || apl <= 1 {
		t.Errorf("average path length = %g", apl)
	}
}

func TestExplicitAlgorithms(t *testing.T) {
	g, err := GenerateBarabasiAlbert(120, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Solve(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgSeqBasic, AlgSeqOptimized, AlgSeqAdaptive, AlgParAlg1, AlgParAlg2, AlgParAPSP} {
		res, err := Solve(g, Options{Algorithm: alg, Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !res.D.Equal(ref.D) {
			t.Errorf("%v solution differs", alg)
		}
	}
}

func TestOrderingOverride(t *testing.T) {
	g, err := GenerateBarabasiAlbert(150, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := Solve(g, Options{})
	for _, proc := range []OrderingProcedure{OrderSeqBucket, OrderParBuckets, OrderParMax, OrderMultiLists} {
		res, err := Solve(g, Options{Ordering: proc, Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", proc, err)
		}
		if !res.D.Equal(ref.D) {
			t.Errorf("%v solution differs", proc)
		}
	}
}

func TestBuilderAndEdges(t *testing.T) {
	b := NewBuilder(3, true)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddWeighted(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.D.At(0, 2) != 6 {
		t.Errorf("D[0][2] = %d, want 6", res.D.At(0, 2))
	}
	g2, err := FromEdges(2, false, []Edge{{From: 0, To: 1, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	res2, _ := Solve(g2, Options{})
	if res2.D.At(0, 1) != 2 || res2.D.At(1, 0) != Inf {
		t.Errorf("directed distances wrong: %d %d", res2.D.At(0, 1), res2.D.At(1, 0))
	}
}

func TestSSSPDistances(t *testing.T) {
	g, err := FromEdges(4, false, []Edge{{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1}, {From: 2, To: 3, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	d := SSSP(g, 0)
	want := []Dist{0, 1, 2, 3}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
	d2 := SSSP(g, 3)
	if d2[0] != Inf {
		t.Error("backward distance finite on directed path")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := GenerateErdosRenyi(40, 100, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	g2, labels, err := ReadEdgeList(strings.NewReader(buf.String()), true, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumArcs() != g.NumArcs() || len(labels) != g2.N() {
		t.Errorf("round trip: arcs %d -> %d", g.NumArcs(), g2.NumArcs())
	}
}

func TestGenerators(t *testing.T) {
	ws, err := GenerateWattsStrogatz(100, 4, 0.1, 5)
	if err != nil || ws.N() != 100 {
		t.Fatalf("WS: %v", err)
	}
	er, err := GenerateErdosRenyi(50, 80, false, 6)
	if err != nil || er.N() != 50 {
		t.Fatalf("ER: %v", err)
	}
}

func TestOrderingAPI(t *testing.T) {
	g, err := GenerateBarabasiAlbert(200, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	ord := OrderByDegreeDesc(g, 4)
	if len(ord) != 200 {
		t.Fatalf("order length = %d", len(ord))
	}
	for i := 1; i < len(ord); i++ {
		if g.OutDegree(ord[i-1]) < g.OutDegree(ord[i]) {
			t.Fatal("order not degree-descending")
		}
	}
	keys := []int{5, 1, 3, 3, 9}
	perm, err := CountingSortDesc(keys)
	if err != nil {
		t.Fatal(err)
	}
	if keys[perm[0]] != 9 || keys[perm[4]] != 1 {
		t.Errorf("CountingSortDesc = %v", perm)
	}
	pperm, err := ParallelCountingSortDesc(keys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range perm {
		if keys[pperm[i]] != keys[perm[i]] {
			t.Error("parallel sort key sequence differs")
		}
	}
}

func TestCentralityAPIs(t *testing.T) {
	// Star graph: hub is the most central by every measure.
	b := NewBuilder(6, true)
	for i := int32(1); i < 6; i++ {
		if err := b.AddEdge(0, i); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := Closeness(res.D)
	h := Harmonic(res.D)
	if TopK(c, 1)[0] != 0 || TopK(h, 1)[0] != 0 {
		t.Error("hub not most central")
	}
	ecc := Eccentricities(res.D)
	if ecc[0] != 1 || ecc[1] != 2 {
		t.Errorf("eccentricities = %v", ecc)
	}
	comp := Components(g)
	for _, cid := range comp {
		if cid != 0 {
			t.Errorf("components = %v", comp)
		}
	}
}

func TestMemoryGuard(t *testing.T) {
	g, err := GenerateBarabasiAlbert(100, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(g, Options{MaxMemBytes: 10}); err == nil {
		t.Error("memory guard did not trigger")
	}
	if EstimateMatrixBytes(100) != 40000 {
		t.Errorf("EstimateMatrixBytes = %d", EstimateMatrixBytes(100))
	}
}

func TestSolveWithLowLevel(t *testing.T) {
	g, err := GenerateBarabasiAlbert(100, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveWith(g, AlgParAlg2, coreOptionsForTest())
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := Solve(g, Options{})
	if !res.D.Equal(ref.D) {
		t.Error("SolveWith solution differs")
	}
}

func TestPathViaFacade(t *testing.T) {
	g, err := GenerateBarabasiAlbert(150, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := Path(g, res.D, 0, 149)
	if len(p) == 0 || p[0] != 0 || p[len(p)-1] != 149 {
		t.Fatalf("path = %v", p)
	}
	if Dist(len(p)-1) != res.D.At(0, 149) {
		t.Errorf("path length %d != distance %d", len(p)-1, res.D.At(0, 149))
	}
	for i := 1; i < len(p); i++ {
		if _, ok := g.ArcWeight(p[i-1], p[i]); !ok {
			t.Errorf("path step %d->%d is not an edge", p[i-1], p[i])
		}
	}

	// A directed graph walks back over its transpose: the only route to 3
	// is the chain, never the reversed arc 3->0.
	dg, err := FromEdges(4, false, []Edge{{From: 0, To: 1, W: 2}, {From: 1, To: 3, W: 2}, {From: 3, To: 0, W: 1}, {From: 0, To: 2, W: 9}})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := Solve(dg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := Path(dg, dres.D, 0, 3); fmt.Sprint(got) != "[0 1 3]" {
		t.Errorf("directed path 0->3 = %v, want [0 1 3]", got)
	}
	if got := Path(dg, dres.D, 3, 2); fmt.Sprint(got) != "[3 0 2]" {
		t.Errorf("directed path 3->2 = %v, want [3 0 2]", got)
	}
	if got := Path(dg, dres.D, 2, 0); got != nil {
		t.Errorf("unreachable directed path 2->0 = %v", got)
	}
}

func TestDistributedViaFacade(t *testing.T) {
	g, err := GenerateBarabasiAlbert(200, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Solve(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	D, st, err := SolveDistributed(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !D.Equal(ref.D) {
		t.Error("distributed solution differs")
	}
	if st.Messages != int64(g.N())*3 {
		t.Errorf("messages = %d", st.Messages)
	}
}

func TestSCCAndBetweennessViaFacade(t *testing.T) {
	g, err := FromEdges(4, false, []Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 0, W: 1}, {From: 1, To: 2, W: 1}, {From: 2, To: 3, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	scc := StronglyConnectedComponents(g)
	if scc[0] != scc[1] || scc[2] == scc[0] || scc[3] == scc[2] {
		t.Errorf("scc = %v", scc)
	}
	bg, err := GenerateBarabasiAlbert(100, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	bc := Betweenness(bg, 3)
	if len(bc) != 100 {
		t.Fatalf("betweenness len = %d", len(bc))
	}
	any := false
	for _, x := range bc {
		if x > 0 {
			any = true
		}
		if x < 0 {
			t.Fatal("negative betweenness")
		}
	}
	if !any {
		t.Error("all betweenness zero")
	}
}

func TestSolveSubsetViaFacade(t *testing.T) {
	g, err := GenerateBarabasiAlbert(200, 3, 14)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Solve(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := SolveSubset(g, []int32{0, 10, 20}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sub.Sources {
		row := sub.Row(s)
		for v := 0; v < g.N(); v++ {
			if row[v] != full.D.At(int(s), v) {
				t.Fatalf("subset row %d differs at %d", s, v)
			}
		}
	}
}

func TestLargestComponentSubgraph(t *testing.T) {
	// Two components: a triangle {0,1,2} and an edge {3,4}.
	g, err := FromEdges(5, true, []Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1}, {From: 2, To: 0, W: 1},
		{From: 3, To: 4, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, names, err := LargestComponentSubgraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("sub = %v", sub)
	}
	for i, orig := range []int32{0, 1, 2} {
		if names[i] != orig {
			t.Errorf("names = %v", names)
		}
	}
	res, err := Solve(sub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.D.CountFinite() != 9 {
		t.Errorf("component APSP has unreachable pairs: %d finite", res.D.CountFinite())
	}
	if math.IsNaN(Assortativity(g)) {
		t.Error("assortativity NaN on non-regular graph")
	}
}

func TestOracleViaFacade(t *testing.T) {
	g, err := GenerateBarabasiAlbert(300, 3, 15)
	if err != nil {
		t.Fatal(err)
	}
	o, err := BuildOracle(g, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Solve(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < 300; u += 37 {
		for v := int32(0); v < 300; v += 41 {
			lo, hi := o.Bounds(u, v)
			d := full.D.At(int(u), int(v))
			if d != Inf && (lo > d || hi < d) {
				t.Fatalf("bounds [%d,%d] exclude %d", lo, hi, d)
			}
		}
	}
}

func TestAnalysisFacadeCoverage(t *testing.T) {
	g, err := GenerateBarabasiAlbert(200, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if gc := GlobalClustering(g, 2); gc <= 0 || gc >= 1 {
		t.Errorf("clustering = %g", gc)
	}
	if lc := LocalClustering(g, 2); len(lc) != 200 {
		t.Errorf("local clustering len = %d", len(lc))
	}
	if kc := KCore(g); len(kc) != 200 {
		t.Errorf("kcore len = %d", len(kc))
	}
	if d := Degeneracy(g); d != 3 {
		t.Errorf("BA(200,3) degeneracy = %d, want 3", d)
	}
	lo, hi := DiameterBounds(g, 3)
	if lo == 0 || hi < lo {
		t.Errorf("diameter bounds = [%d,%d]", lo, hi)
	}
	pr := PageRank(g, 0.85, 1e-9, 50, 2)
	sum := 0.0
	for _, r := range pr {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("pagerank sums to %g", sum)
	}
	d := SSSP(g, 0)
	if d[0] != 0 || len(d) != 200 {
		t.Errorf("SSSP row broken")
	}
}

func TestFormatsAndSortsFacade(t *testing.T) {
	g, err := GenerateBarabasiAlbert(60, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	var mm bytes.Buffer
	if err := WriteMatrixMarket(&mm, g); err != nil {
		t.Fatal(err)
	}
	g2, labels, err := ReadMatrixMarket(&mm)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumArcs() != g.NumArcs() || len(labels) != g2.N() {
		t.Errorf("MatrixMarket round trip: %v -> %v", g, g2)
	}
	perm, err := ParallelRadixSortDesc([]int{70000, 3, 500, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if perm[0] != 0 || perm[1] != 2 {
		t.Errorf("radix perm = %v", perm)
	}
}

func TestLoadEdgeListFile(t *testing.T) {
	dir := t.TempDir()
	g, err := GenerateErdosRenyi(30, 60, true, 18)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.txt.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if err := WriteEdgeList(zw, g, nil); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	f.Close()
	g2, _, err := LoadEdgeList(path, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumArcs() != g.NumArcs() {
		t.Errorf("file round trip arcs %d -> %d", g.NumArcs(), g2.NumArcs())
	}
	if _, _, err := LoadEdgeList("/no/such/file", true, false); err == nil {
		t.Error("missing file accepted")
	}
}
