package gio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"parapsp/internal/gen"
)

const mmPattern = `%%MatrixMarket matrix coordinate pattern symmetric
% a comment
3 3 2
2 1
3 2
`

const mmInteger = `%%MatrixMarket matrix coordinate integer general
2 2 2
1 2 5
2 1 7
`

func TestReadMatrixMarketPatternSymmetric(t *testing.T) {
	res, err := ReadMatrixMarket(strings.NewReader(mmPattern))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if g.N() != 3 || !g.Undirected() || g.Weighted() {
		t.Fatalf("graph = %v weighted=%v", g, g.Weighted())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if res.Labels[0] != 1 || res.Labels[2] != 3 {
		t.Errorf("labels = %v", res.Labels)
	}
}

func TestReadMatrixMarketIntegerGeneral(t *testing.T) {
	res, err := ReadMatrixMarket(strings.NewReader(mmInteger))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if !g.Weighted() || g.Undirected() {
		t.Fatalf("weighted=%v undirected=%v", g.Weighted(), g.Undirected())
	}
	_, w := g.NeighborsW(0)
	if w[0] != 5 {
		t.Errorf("weight = %d", w[0])
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", ""},
		{"bad header", "%%MatrixMarket tensor coordinate pattern general\n1 1 0\n"},
		{"complex field", "%%MatrixMarket matrix coordinate complex general\n1 1 0\n"},
		{"skew symmetry", "%%MatrixMarket matrix coordinate pattern skew-symmetric\n1 1 0\n"},
		{"non-square", "%%MatrixMarket matrix coordinate pattern general\n2 3 0\n"},
		{"bad size", "%%MatrixMarket matrix coordinate pattern general\nx y z\n"},
		{"no size line", "%%MatrixMarket matrix coordinate pattern general\n% only a comment\n"},
		{"index zero", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n"},
		{"index over", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 3\n"},
		{"missing value", "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2\n"},
		{"zero value", "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 0\n"},
		{"count mismatch", "%%MatrixMarket matrix coordinate pattern general\n2 2 5\n1 2\n"},
		{"one column entry", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n"},
	}
	for _, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c.src)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", c.name, err)
		}
	}
}

func TestMatrixMarketRoundTripUndirected(t *testing.T) {
	g, err := gen.BarabasiAlbert(60, 3, 4, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "%%MatrixMarket matrix coordinate pattern symmetric") {
		t.Fatalf("header: %q", buf.String()[:60])
	}
	res, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumArcs() != g.NumArcs() || res.Graph.N() != g.N() {
		t.Errorf("round trip: %v -> %v", g, res.Graph)
	}
}

func TestMatrixMarketRoundTripWeightedDirected(t *testing.T) {
	g, err := gen.ErdosRenyiGNM(30, 100, false, 5, gen.Weighting{Min: 2, Max: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	res, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2 := res.Graph
	if g2.NumArcs() != g.NumArcs() || !g2.Weighted() {
		t.Fatalf("round trip: arcs %d->%d weighted=%v", g.NumArcs(), g2.NumArcs(), g2.Weighted())
	}
	// Weights preserved exactly (Matrix Market labels are identity here).
	for u := int32(0); u < int32(g.N()); u++ {
		a1, w1 := g.NeighborsW(u)
		a2, w2 := g2.NeighborsW(u)
		if len(a1) != len(a2) {
			t.Fatalf("adjacency of %d: %d vs %d", u, len(a1), len(a2))
		}
		for i := range a1 {
			if a1[i] != a2[i] || w1[i] != w2[i] {
				t.Fatalf("arc %d->%d weight %d vs %d->%d weight %d", u, a1[i], w1[i], u, a2[i], w2[i])
			}
		}
	}
}

func TestMatrixMarketRealField(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.0\n"
	res, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	_, w := res.Graph.NeighborsW(0)
	if w[0] != 3 {
		t.Errorf("real weight = %d, want 3", w[0])
	}
}

func TestMatrixMarketEmptyGraph(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate pattern general\n0 0 0\n"
	res, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil || res.Graph.N() != 0 {
		t.Errorf("empty: %v, %v", res, err)
	}
}
