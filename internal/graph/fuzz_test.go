package graph

import (
	"slices"
	"sort"
	"testing"

	"parapsp/internal/matrix"
)

// refBuild is Build as one sort of every arc by (source, target, weight):
// the reference the counting-sort build must match byte for byte.
func refBuild(b *Builder) (*Graph, error) {
	edges := b.edges
	if b.undirected {
		rev := make([]Edge, 0, len(edges))
		for _, e := range edges {
			if e.From != e.To {
				rev = append(rev, Edge{From: e.To, To: e.From, W: e.W})
			}
		}
		edges = append(append(make([]Edge, 0, len(edges)+len(rev)), edges...), rev...)
	} else {
		edges = append(make([]Edge, 0, len(edges)), edges...)
	}

	if !b.keepLoops {
		kept := edges[:0]
		for _, e := range edges {
			if e.From != e.To {
				kept = append(kept, e)
			}
		}
		edges = kept
	}

	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].W < edges[j].W
	})

	if !b.keepMulti {
		kept := edges[:0]
		for i, e := range edges {
			if i > 0 && e.From == edges[i-1].From && e.To == edges[i-1].To {
				continue
			}
			kept = append(kept, e)
		}
		edges = kept
	}

	offsets := make([]int64, b.n+1)
	for _, e := range edges {
		offsets[e.From+1]++
	}
	for v := 0; v < b.n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]int32, len(edges))
	var weights []matrix.Dist
	if b.weighted {
		weights = make([]matrix.Dist, len(edges))
	}
	for i, e := range edges {
		targets[i] = e.To
		if weights != nil {
			weights[i] = e.W
		}
	}
	g := &Graph{offsets: offsets, targets: targets, weights: weights, undirected: b.undirected}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// FuzzBuilder feeds arbitrary weighted edges to the builder under every
// combination of the Undirected, KeepSelfLoops and KeepParallelEdges
// policies. Whatever builds must be a structurally valid CSR graph whose
// degree accounting is internally consistent, and its offsets, targets
// and weights must equal refBuild's element by element.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1}, uint8(4))
	f.Add([]byte{0, 0, 1}, uint8(1))
	f.Add([]byte{3, 2, 9, 2, 3, 4, 3, 2, 2, 2, 2, 255}, uint8(5))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 0, 255, 1, 0, 0, 0, 1, 7, 40, 1, 1}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint8) {
		n := int(nRaw % 32)
		for policy := 0; policy < 8; policy++ {
			undirected, keepLoops, keepMulti := policy&1 != 0, policy&2 != 0, policy&4 != 0
			b := NewBuilder(n, undirected)
			if keepLoops {
				b.KeepSelfLoops()
			}
			if keepMulti {
				b.KeepParallelEdges()
			}
			added := 0
			for i := 0; i+2 < len(data); i += 3 {
				// Byte 255 stands for the largest finite weight.
				u, v, w := int32(data[i]), int32(data[i+1]), matrix.Dist(data[i+2])
				if w == 255 {
					w = matrix.Inf - 1
				}
				err := b.AddWeighted(u, v, w)
				valid := int(u) < n && int(v) < n && w != 0
				if valid && err != nil {
					t.Fatalf("valid edge (%d,%d,%d) rejected: %v", u, v, w, err)
				}
				if !valid && err == nil {
					t.Fatalf("invalid edge (%d,%d,%d) accepted", u, v, w)
				}
				if err == nil {
					added++
				}
			}
			if b.NumPending() != added {
				t.Fatalf("pending %d != added %d", b.NumPending(), added)
			}
			g, err := b.Build()
			if err != nil {
				t.Fatalf("build failed on accepted edges: %v", err)
			}
			want, err := refBuild(b)
			if err != nil {
				t.Fatalf("reference build failed on accepted edges: %v", err)
			}
			if !slices.Equal(g.offsets, want.offsets) || !slices.Equal(g.targets, want.targets) ||
				!slices.Equal(g.weights, want.weights) || (g.weights == nil) != (want.weights == nil) ||
				g.undirected != want.undirected {
				t.Fatalf("policy %03b: built CSR differs from the reference\noffsets %v\n   want %v\ntargets %v\n   want %v\nweights %v\n   want %v",
					policy, g.offsets, want.offsets, g.targets, want.targets, g.weights, want.weights)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("built graph invalid: %v", err)
			}
			// Degree sum equals arc count.
			sum := int64(0)
			for _, d := range g.Degrees() {
				sum += int64(d)
			}
			if sum != g.NumArcs() {
				t.Fatalf("degree sum %d != arcs %d", sum, g.NumArcs())
			}
			// Arc count cannot exceed what was added (after symmetrization).
			limit := int64(added)
			if undirected {
				limit *= 2
			}
			if g.NumArcs() > limit {
				t.Fatalf("arcs %d exceed input bound %d", g.NumArcs(), limit)
			}
			// Without loop/multi keeping, the graph is simple.
			if !keepLoops {
				for v := int32(0); v < int32(n); v++ {
					for _, u := range g.Neighbors(v) {
						if u == v {
							t.Fatalf("self loop survived at %d", v)
						}
					}
				}
			}
			if !keepMulti {
				for v := int32(0); v < int32(n); v++ {
					adj := g.Neighbors(v)
					for i := 1; i < len(adj); i++ {
						if adj[i] == adj[i-1] {
							t.Fatalf("parallel arc survived at %d->%d", v, adj[i])
						}
					}
				}
			}
		}
	})
}
