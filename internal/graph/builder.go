package graph

import (
	"fmt"
	"slices"

	"parapsp/internal/matrix"
)

// Builder accumulates edges and produces an immutable CSR Graph.
// The zero value is not ready to use; call NewBuilder.
//
// Policy knobs mirror how the paper's experiments preprocess the SNAP and
// KONECT datasets: self-loops are dropped (they never participate in a
// shortest path with positive weights) and parallel edges are merged,
// keeping the minimum weight.
type Builder struct {
	n          int
	undirected bool
	weighted   bool
	keepLoops  bool
	keepMulti  bool
	edges      []Edge
}

// NewBuilder returns a builder for a graph over n vertices.
// If undirected is true every added edge is materialized in both directions.
func NewBuilder(n int, undirected bool) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n, undirected: undirected}
}

// KeepSelfLoops makes Build retain self-loop edges instead of dropping them.
func (b *Builder) KeepSelfLoops() *Builder { b.keepLoops = true; return b }

// KeepParallelEdges makes Build retain parallel edges instead of merging
// them to the minimum weight.
func (b *Builder) KeepParallelEdges() *Builder { b.keepMulti = true; return b }

// ForceWeighted makes Build store explicit weights even when every edge
// weighs 1. Loaders use it so a weighted input file round-trips through
// WriteEdgeList with its weight column intact.
func (b *Builder) ForceWeighted() *Builder { b.weighted = true; return b }

// AddEdge records an unweighted (weight-1) edge.
func (b *Builder) AddEdge(from, to int32) error { return b.AddWeighted(from, to, 1) }

// AddWeighted records an edge with an explicit positive finite weight.
// Adding any weight other than 1 switches the built graph to weighted mode.
func (b *Builder) AddWeighted(from, to int32, w matrix.Dist) error {
	if from < 0 || int(from) >= b.n || to < 0 || int(to) >= b.n {
		return fmt.Errorf("%w: edge (%d,%d) in graph of %d vertices", ErrVertexRange, from, to, b.n)
	}
	if w == 0 || w == matrix.Inf {
		return fmt.Errorf("%w: got %d", ErrZeroWeight, w)
	}
	if w != 1 {
		b.weighted = true
	}
	b.edges = append(b.edges, Edge{From: from, To: to, W: w})
	return nil
}

// NumPending returns the number of edges recorded so far.
func (b *Builder) NumPending() int { return len(b.edges) }

// Build assembles the CSR graph. The builder can be reused afterwards;
// Build does not consume the recorded edges.
//
// Arcs are placed by a counting sort on the source, the pass Transpose
// makes, and each source's arcs are then sorted by (target, weight), so
// the build costs O(n + m) plus the sort of each adjacency list, and
// every list comes out in the order one sort of all arcs by (source,
// target, weight) gives. Merging parallel arcs keeps the first of each
// run, which has the minimum weight.
func (b *Builder) Build() (*Graph, error) {
	// An undirected edge is materialized in both directions; a self-loop
	// is one arc, kept or dropped by policy.
	offsets := make([]int64, b.n+1)
	for _, e := range b.edges {
		if e.From != e.To || b.keepLoops {
			offsets[e.From+1]++
		}
		if e.From != e.To && b.undirected {
			offsets[e.To+1]++
		}
	}
	for v := 0; v < b.n; v++ {
		offsets[v+1] += offsets[v]
	}

	// Each arc is one key, target above weight, so an adjacency list
	// sorts by (target, weight) as plain integers.
	keys := make([]uint64, offsets[b.n])
	next := make([]int64, b.n)
	copy(next, offsets[:b.n])
	for _, e := range b.edges {
		if e.From != e.To || b.keepLoops {
			keys[next[e.From]] = uint64(e.To)<<32 | uint64(e.W)
			next[e.From]++
		}
		if e.From != e.To && b.undirected {
			keys[next[e.To]] = uint64(e.From)<<32 | uint64(e.W)
			next[e.To]++
		}
	}

	// Sort each list and merge its parallel arcs in place; the kept arcs
	// of v move down to start at the new offsets[v].
	m, lo := int64(0), int64(0)
	for v := 0; v < b.n; v++ {
		hi := offsets[v+1]
		arcs := keys[lo:hi]
		slices.Sort(arcs)
		for i, k := range arcs {
			if !b.keepMulti && i > 0 && k>>32 == arcs[i-1]>>32 {
				continue
			}
			keys[m] = k
			m++
		}
		offsets[v+1], lo = m, hi
	}

	targets := make([]int32, m)
	var weights []matrix.Dist
	if b.weighted {
		weights = make([]matrix.Dist, m)
	}
	for i, k := range keys[:m] {
		targets[i] = int32(k >> 32)
		if weights != nil {
			weights[i] = matrix.Dist(k)
		}
	}
	g := &Graph{offsets: offsets, targets: targets, weights: weights, undirected: b.undirected}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// FromEdges is a convenience constructor building a graph in one call.
func FromEdges(n int, undirected bool, edges []Edge) (*Graph, error) {
	b := NewBuilder(n, undirected)
	for _, e := range edges {
		if err := b.AddWeighted(e.From, e.To, e.W); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// FromPairs builds an unweighted graph from (from, to) pairs.
func FromPairs(n int, undirected bool, pairs [][2]int32) (*Graph, error) {
	b := NewBuilder(n, undirected)
	for _, p := range pairs {
		if err := b.AddEdge(p[0], p[1]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
