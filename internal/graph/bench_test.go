package graph_test

import (
	"bytes"
	"testing"

	"parapsp/internal/gen"
	"parapsp/internal/gio"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// BenchmarkBuild builds the CSR of each of the fixed benchmark's inputs
// from the edges gio.ReadEdgeList hands the builder: the weighted
// power-law graph (n=2000, gamma 2.5, minimum degree 2, weights in
// [1,100], relabeled with seed 1) and the unweighted 44x44 grid, each
// undirected edge once, in the order gio.WriteEdgeList writes it and
// with the ids the loader gives labels in first-seen order.
func BenchmarkBuild(b *testing.B) {
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
		name string
		g    *graph.Graph
	}{{"powerlaw", pl}, {"grid", grid}} {
		// The written labels are the generator's ids; the loader numbers
		// them in the order the file first names them.
		var buf bytes.Buffer
		if err := gio.WriteEdgeList(&buf, in.g, nil); err != nil {
			b.Fatal(err)
		}
		res, err := gio.ReadEdgeList(&buf, gio.Options{Undirected: true, Weighted: in.g.Weighted()})
		if err != nil {
			b.Fatal(err)
		}
		id := make([]int32, in.g.N())
		for d, label := range res.Labels {
			id[label] = int32(d)
		}

		bld := graph.NewBuilder(len(res.Labels), true)
		if in.g.Weighted() {
			bld.ForceWeighted()
		}
		for u := int32(0); u < int32(in.g.N()); u++ {
			adj, w := in.g.NeighborsW(u)
			for i, v := range adj {
				if v < u {
					continue // each undirected edge once, as written
				}
				wt := matrix.Dist(1)
				if w != nil {
					wt = w[i]
				}
				if err := bld.AddWeighted(id[u], id[v], wt); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bld.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
