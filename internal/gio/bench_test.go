package gio

import (
	"bytes"
	"testing"

	"parapsp/internal/gen"
	"parapsp/internal/graph"
)

// BenchmarkReadEdgeList loads each of the fixed benchmark's edge lists,
// the set-up its apsp workloads time: the weighted power-law graph
// (n=2000, gamma 2.5, minimum degree 2, weights in [1,100], relabeled
// with seed 1) and the unweighted 44x44 grid, written by WriteEdgeList
// and loaded with the options the benchmark uses.
func BenchmarkReadEdgeList(b *testing.B) {
	pl, err := gen.PowerLawConfiguration(2000, 2.5, 2, true, 1, gen.Weighting{Min: 1, Max: 100})
	if err == nil {
		pl, err = gen.Relabel(pl, 1)
	}
	if err != nil {
		b.Fatal(err)
	}
	grid, err := gen.Grid2D(44, 44, true, 1, gen.Weighting{})
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name     string
		g        *graph.Graph
		weighted bool
	}{{"powerlaw", pl, true}, {"grid", grid, false}} {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, in.g, nil); err != nil {
			b.Fatal(err)
		}
		opts := Options{Undirected: true, Weighted: in.weighted}
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadEdgeList(bytes.NewReader(buf.Bytes()), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
