package gio

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"parapsp/internal/gen"
	"parapsp/internal/graph"
)

const snapSample = `# Directed graph (each unordered pair of nodes is saved once)
# FromNodeId	ToNodeId
0	1
0	2
1	2
5	0
`

const konectSample = `% sym unweighted
% 4 3
10 20
20 30
30 10
`

func TestReadSNAP(t *testing.T) {
	res, err := ReadEdgeList(strings.NewReader(snapSample), Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.NumArcs() != 4 {
		t.Fatalf("arcs = %d, want 4", g.NumArcs())
	}
	// Labels in first-seen order: 0,1,2,5.
	want := []int64{0, 1, 2, 5}
	for i, l := range want {
		if res.Labels[i] != l {
			t.Errorf("label[%d] = %d, want %d", i, res.Labels[i], l)
		}
	}
}

func TestReadKONECT(t *testing.T) {
	res, err := ReadEdgeList(strings.NewReader(konectSample), Options{Undirected: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.N() != 3 || res.Graph.NumEdges() != 3 {
		t.Fatalf("N=%d m=%d", res.Graph.N(), res.Graph.NumEdges())
	}
	if !res.Graph.Undirected() {
		t.Error("not undirected")
	}
}

func TestReadWeighted(t *testing.T) {
	src := "1 2 5\n2 3 7\n"
	res, err := ReadEdgeList(strings.NewReader(src), Options{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Weighted() {
		t.Fatal("graph not weighted")
	}
	_, w := res.Graph.NeighborsW(0)
	if w[0] != 5 {
		t.Errorf("weight = %d, want 5", w[0])
	}
}

func TestReadExtraColumnsIgnoredUnweighted(t *testing.T) {
	// KONECT files may carry weight + timestamp columns.
	src := "1 2 1 1200000000\n2 3 1 1200000001\n"
	res, err := ReadEdgeList(strings.NewReader(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Weighted() || res.Graph.NumArcs() != 2 {
		t.Fatalf("weighted=%v arcs=%d", res.Graph.Weighted(), res.Graph.NumArcs())
	}
}

func TestReadMalformed(t *testing.T) {
	cases := []struct {
		name, src string
		opts      Options
	}{
		{"one column", "42\n", Options{}},
		{"bad source", "x 2\n", Options{}},
		{"bad target", "1 y\n", Options{}},
		{"missing weight", "1 2\n", Options{Weighted: true}},
		{"zero weight", "1 2 0\n", Options{Weighted: true}},
		{"bad weight", "1 2 -3\n", Options{Weighted: true}},
		{"huge weight", "1 2 4294967295\n", Options{Weighted: true}},
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c.src), c.opts); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", c.name, err)
		}
	}
}

func TestReadEmpty(t *testing.T) {
	res, err := ReadEdgeList(strings.NewReader("# only comments\n% and more\n"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.N() != 0 {
		t.Errorf("N = %d, want 0", res.Graph.N())
	}
}

func TestSelfLoopPolicy(t *testing.T) {
	src := "1 1\n1 2\n"
	res, err := ReadEdgeList(strings.NewReader(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumArcs() != 1 {
		t.Errorf("default arcs = %d, want 1", res.Graph.NumArcs())
	}
	res, err = ReadEdgeList(strings.NewReader(src), Options{KeepSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumArcs() != 2 {
		t.Errorf("keep-loops arcs = %d, want 2", res.Graph.NumArcs())
	}
}

func roundTrip(t *testing.T, g *graph.Graph, opts Options) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	res, err := ReadEdgeList(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

func TestRoundTripUndirected(t *testing.T) {
	g, err := gen.BarabasiAlbert(80, 3, 3, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	g2 := roundTrip(t, g, Options{Undirected: true})
	if g2.N() != g.N() || g2.NumArcs() != g.NumArcs() {
		t.Fatalf("round trip changed size: %v -> %v", g, g2)
	}
}

func TestRoundTripDirectedWeighted(t *testing.T) {
	g, err := gen.ErdosRenyiGNM(40, 120, false, 5, gen.Weighting{Min: 1, Max: 9})
	if err != nil {
		t.Fatal(err)
	}
	g2 := roundTrip(t, g, Options{Weighted: true})
	if g2.NumArcs() != g.NumArcs() || !g2.Weighted() {
		t.Fatalf("round trip: arcs %d->%d weighted=%v", g.NumArcs(), g2.NumArcs(), g2.Weighted())
	}
	// Compare a few adjacencies with weights. Labels are first-seen, not
	// necessarily identity, so compare via labels mapping.
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	res, err := ReadEdgeList(&buf, Options{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	// For every arc in g, the same labeled arc must exist in res.Graph.
	back := make(map[int64]int32)
	for id, l := range res.Labels {
		back[l] = int32(id)
	}
	for u := int32(0); u < int32(g.N()); u++ {
		adj, w := g.NeighborsW(u)
		ru, ok := back[int64(u)]
		if !ok {
			if len(adj) == 0 {
				continue // isolated vertices are not representable in edge lists
			}
			t.Fatalf("vertex %d lost", u)
		}
		radj, rw := res.Graph.NeighborsW(ru)
		for i, v := range adj {
			found := false
			for j, rv := range radj {
				if res.Labels[rv] == int64(v) && rw[j] == w[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("arc %d->%d w=%d lost", u, v, w[i])
			}
		}
	}
}

func TestFileRoundTripGzip(t *testing.T) {
	dir := t.TempDir()
	g, err := gen.BarabasiAlbert(50, 2, 8, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"g.txt", "g.txt.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, g, nil); err != nil {
			t.Fatal(err)
		}
		res, err := ReadFile(path, Options{Undirected: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Graph.NumArcs() != g.NumArcs() {
			t.Errorf("%s: arcs %d -> %d", name, g.NumArcs(), res.Graph.NumArcs())
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile("/nonexistent/file.txt", Options{}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestWriteEdgeListMatchesFmt holds the writer to the fmt-formatted
// reference, byte for byte, for directed and undirected, weighted and
// unweighted graphs, with dense ids and with negative and large labels.
func TestWriteEdgeListMatchesFmt(t *testing.T) {
	for _, undirected := range []bool{false, true} {
		for _, w := range []gen.Weighting{{}, {Min: 1, Max: 1 << 30}} {
			g, err := gen.ErdosRenyiGNM(50, 200, undirected, 9, w)
			if err != nil {
				t.Fatal(err)
			}
			neg := make([]int64, g.N())
			for i := range neg {
				neg[i] = int64(i)*-7919 - 1<<40
			}
			neg[0] = -1
			for _, labels := range [][]int64{nil, neg} {
				var got, want bytes.Buffer
				if err := WriteEdgeList(&got, g, labels); err != nil {
					t.Fatal(err)
				}
				if err := refWriteEdgeList(&want, g, labels); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("undirected=%v weighted=%v labels=%v: output differs from fmt",
						undirected, g.Weighted(), labels != nil)
				}
			}
		}
	}
}

func TestWriteWithLabels(t *testing.T) {
	g, err := graph.FromPairs(2, false, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g, []int64{100, 200}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "100\t200") {
		t.Errorf("labels not applied: %q", buf.String())
	}
}
