// Package parapsp is the public API of this repository: a shared-memory
// parallel all-pairs shortest paths (APSP) library for complex-network
// analysis, reproducing Kim, Choi & Bae, "Efficient Parallel All-Pairs
// Shortest Paths Algorithm for Complex Graph Analysis" (ICPP 2018
// Companion), which parallelizes Peng et al.'s fast APSP algorithm and
// contributes the exact, lock-free MultiLists parallel ordering.
//
// # Quick start
//
//	g, err := parapsp.GenerateBarabasiAlbert(10_000, 4, 1)
//	if err != nil { ... }
//	res, err := parapsp.Solve(g, parapsp.Options{Workers: 8})
//	if err != nil { ... }
//	fmt.Println("diameter:", parapsp.Diameter(res.D))
//
// The default Solve configuration is the paper's ParAPSP algorithm:
// MultiLists degree-descending ordering followed by a dynamic-cyclic
// parallel loop of modified-Dijkstra runs that reuse completed rows.
// Every other algorithm the paper measures (the sequential basic,
// optimized and adaptive solvers, ParAlg1, ParAlg2) is selectable through
// Options.Algorithm, and every alternative ordering procedure
// (selection sort, ParBuckets, ParMax) through Options.Ordering — all of
// them produce the identical exact solution.
//
// Graphs are immutable CSR structures built with NewBuilder or loaded from
// SNAP/KONECT edge lists with LoadEdgeList; synthetic scale-free inputs
// come from the Generate* functions. Analysis helpers (Diameter,
// Closeness, ...) consume the distance matrix.
package parapsp

import (
	"io"

	"parapsp/internal/analysis"
	"parapsp/internal/core"
	"parapsp/internal/dist"
	"parapsp/internal/gen"
	"parapsp/internal/gio"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/oracle"
	"parapsp/internal/order"
	"parapsp/internal/sched"
)

// Re-exported core types. Aliases keep the internal packages as the single
// source of truth while giving users one import.
type (
	// Graph is an immutable CSR graph over dense vertex ids [0, N()).
	Graph = graph.Graph
	// Builder accumulates edges and produces a Graph.
	Builder = graph.Builder
	// Edge is a weighted directed edge used during construction.
	Edge = graph.Edge
	// Dist is the distance type; Inf marks unreachable pairs.
	Dist = matrix.Dist
	// Matrix is the dense n-by-n APSP distance matrix.
	Matrix = matrix.Matrix
	// Result carries the distance matrix plus phase timings.
	Result = core.Result
	// Algorithm selects an APSP solver (AlgSeqBasic ... AlgParAPSP).
	Algorithm = core.Algorithm
	// OrderingProcedure selects a source-ordering procedure.
	OrderingProcedure = order.Procedure
	// Schedule selects the parallel loop schedule.
	Schedule = sched.Scheme
	// Weighting requests random edge weights from the generators.
	Weighting = gen.Weighting
)

// Inf is the distance of unreachable vertex pairs.
const Inf = matrix.Inf

// Algorithms, in the paper's naming.
const (
	AlgSeqBasic     = core.SeqBasic
	AlgSeqOptimized = core.SeqOptimized
	AlgSeqAdaptive  = core.SeqAdaptive
	AlgParAlg1      = core.ParAlg1
	AlgParAlg2      = core.ParAlg2
	AlgParAPSP      = core.ParAPSP
)

// Ordering procedures (Section 4 of the paper).
const (
	OrderSelection  = order.Selection
	OrderSeqBucket  = order.SeqBucket
	OrderParBuckets = order.ParBucketsProc
	OrderParMax     = order.ParMaxProc
	OrderMultiLists = order.MultiListsProc
)

// Loop schedules (Figure 1 of the paper).
const (
	ScheduleBlock         = sched.Block
	ScheduleStaticCyclic  = sched.StaticCyclic
	ScheduleDynamicCyclic = sched.DynamicCyclic
)

// Options configures Solve. The zero value runs the paper's ParAPSP on a
// single worker.
type Options struct {
	// Algorithm selects the solver; default AlgParAPSP.
	Algorithm Algorithm
	// Workers is the parallelism; default 1. Values below 1 mean 1.
	Workers int
	// Ordering overrides ParAPSP's ordering procedure (default
	// MultiLists). Ignored by algorithms whose ordering is fixed.
	Ordering OrderingProcedure
	// MaxMemBytes, when non-zero, refuses runs whose n*n distance matrix
	// would exceed the bound instead of exhausting memory. Shortest paths
	// cost nothing beyond it: Path walks them back from the matrix.
	MaxMemBytes uint64
}

// Solve computes exact all-pairs shortest paths on g.
func Solve(g *Graph, opts Options) (*Result, error) {
	alg := opts.Algorithm
	if alg == Algorithm(0) {
		// Zero value means "the paper's contribution".
		alg = AlgParAPSP
	}
	copts := core.Options{
		Workers:     opts.Workers,
		Ordering:    opts.Ordering,
		MaxMemBytes: opts.MaxMemBytes,
	}
	return core.Solve(g, alg, copts)
}

// Path returns the vertices of a shortest path from s to v in g, both
// endpoints included, walked back from row s of D, a solved distance
// matrix of g (core.Path): [s] when v == s, nil when v is unreachable.
// It needs no second n×n matrix; on a directed graph each call builds the
// reverse graph, O(n+m).
func Path(g *Graph, D *Matrix, s, v int32) []int32 {
	rev := g
	if !g.Undirected() {
		rev = g.Transpose()
	}
	return core.Path(rev, D.Row(int(s)), s, v)
}

// SolveWith exposes the full low-level configuration (schedules, kernels,
// ablation switches) for benchmark-grade control; see core.Options.
func SolveWith(g *Graph, alg Algorithm, opts core.Options) (*Result, error) {
	return core.Solve(g, alg, opts)
}

// SubsetResult holds shortest-path rows for a subset of sources.
type SubsetResult = core.SubsetResult

// SolveSubset computes exact shortest-path rows for the given sources
// only, in O(len(sources) * n) memory — the escape hatch when the full
// n*n matrix does not fit (the paper's 194k-vertex dataset already needs
// ~150 GB). Rows still reuse each other's completed results.
func SolveSubset(g *Graph, sources []int32, opts Options) (*SubsetResult, error) {
	return core.SolveSubset(g, sources, core.Options{
		Workers:     opts.Workers,
		MaxMemBytes: opts.MaxMemBytes,
	})
}

// NewBuilder starts building a graph over n vertices; undirected graphs
// materialize both arc directions.
func NewBuilder(n int, undirected bool) *Builder { return graph.NewBuilder(n, undirected) }

// FromEdges builds a graph in one call.
func FromEdges(n int, undirected bool, edges []Edge) (*Graph, error) {
	return graph.FromEdges(n, undirected, edges)
}

// LoadEdgeList reads a SNAP/KONECT edge list ('#'/'%' comments, optional
// ".gz" suffix). Returned labels map dense ids back to the file's ids.
func LoadEdgeList(path string, undirected, weighted bool) (*Graph, []int64, error) {
	res, err := gio.ReadFile(path, gio.Options{Undirected: undirected, Weighted: weighted})
	if err != nil {
		return nil, nil, err
	}
	return res.Graph, res.Labels, nil
}

// ReadEdgeList parses an edge list from r (same format as LoadEdgeList).
func ReadEdgeList(r io.Reader, undirected, weighted bool) (*Graph, []int64, error) {
	res, err := gio.ReadEdgeList(r, gio.Options{Undirected: undirected, Weighted: weighted})
	if err != nil {
		return nil, nil, err
	}
	return res.Graph, res.Labels, nil
}

// WriteEdgeList writes g in SNAP format; labels may be nil for identity.
func WriteEdgeList(w io.Writer, g *Graph, labels []int64) error {
	return gio.WriteEdgeList(w, g, labels)
}

// GenerateBarabasiAlbert grows an undirected scale-free graph of n
// vertices, each new vertex attaching m edges preferentially.
func GenerateBarabasiAlbert(n, m int, seed int64) (*Graph, error) {
	return gen.BarabasiAlbert(n, m, seed, gen.Weighting{})
}

// GenerateErdosRenyi returns a uniform G(n,m) random graph.
func GenerateErdosRenyi(n, m int, undirected bool, seed int64) (*Graph, error) {
	return gen.ErdosRenyiGNM(n, m, undirected, seed, gen.Weighting{})
}

// GenerateWattsStrogatz returns a small-world graph (ring lattice of
// degree k, rewiring probability beta).
func GenerateWattsStrogatz(n, k int, beta float64, seed int64) (*Graph, error) {
	return gen.WattsStrogatz(n, k, beta, seed, gen.Weighting{})
}

// OrderByDegreeDesc returns the vertices of g ordered by non-increasing
// degree using the paper's MultiLists procedure across workers.
func OrderByDegreeDesc(g *Graph, workers int) []int32 {
	return order.MultiLists(g.Degrees(), workers, 0.1)
}

// CountingSortDesc stably sorts indices of non-negative integer keys in
// non-increasing key order in O(n + maxKey) — the general-purpose use of
// the paper's ordering machinery.
func CountingSortDesc(keys []int) ([]int32, error) { return order.CountingSortDesc(keys) }

// ParallelCountingSortDesc is CountingSortDesc across workers (exact and
// lock-free, the paper's MultiLists).
func ParallelCountingSortDesc(keys []int, workers int) ([]int32, error) {
	return order.ParallelCountingSortDesc(keys, workers)
}

// ParallelRadixSortDesc stably sorts indices of 31-bit non-negative keys
// in non-increasing order with a parallel LSD radix sort — the package's
// ordering machinery extended past the bounded-key restriction.
func ParallelRadixSortDesc(keys []int, workers int) ([]int32, error) {
	return order.ParallelRadixSortDesc(keys, workers)
}

// ReadMatrixMarket parses a graph in Matrix Market coordinate format.
func ReadMatrixMarket(r io.Reader) (*Graph, []int64, error) {
	res, err := gio.ReadMatrixMarket(r)
	if err != nil {
		return nil, nil, err
	}
	return res.Graph, res.Labels, nil
}

// WriteMatrixMarket writes g in Matrix Market coordinate format.
func WriteMatrixMarket(w io.Writer, g *Graph) error { return gio.WriteMatrixMarket(w, g) }

// Analysis re-exports: complex-network statistics over the distance matrix.

// Diameter returns the longest shortest path (over reachable pairs).
func Diameter(D *Matrix) Dist { return analysis.Diameter(D) }

// Radius returns the smallest non-zero vertex eccentricity.
func Radius(D *Matrix) Dist { return analysis.Radius(D) }

// Eccentricities returns each vertex's maximum finite distance.
func Eccentricities(D *Matrix) []Dist { return analysis.Eccentricities(D) }

// AveragePathLength returns the mean distance over reachable ordered pairs.
func AveragePathLength(D *Matrix) float64 { return analysis.AveragePathLength(D) }

// Closeness returns Wasserman-Faust closeness centrality per vertex.
func Closeness(D *Matrix) []float64 { return analysis.Closeness(D) }

// Harmonic returns harmonic centrality per vertex.
func Harmonic(D *Matrix) []float64 { return analysis.Harmonic(D) }

// TopK returns the indices of the k largest values, descending.
func TopK(values []float64, k int) []int { return analysis.TopK(values, k) }

// Components labels the weakly connected components of g.
func Components(g *Graph) []int { return analysis.Components(g) }

// StronglyConnectedComponents labels the strongly connected components of
// g (Tarjan; ids in reverse topological order of the condensation).
func StronglyConnectedComponents(g *Graph) []int { return analysis.SCC(g) }

// Betweenness computes exact betweenness centrality of an unweighted
// graph (Brandes), parallelized over sources like the APSP solvers.
// Weighted graphs need BetweennessWeighted.
func Betweenness(g *Graph, workers int) []float64 { return analysis.Betweenness(g, workers) }

// BetweennessWeighted is Brandes' betweenness with a Dijkstra inner loop,
// valid for positive edge weights (and equal to Betweenness on
// unweighted graphs).
func BetweennessWeighted(g *Graph, workers int) []float64 {
	return analysis.BetweennessWeighted(g, workers)
}

// GlobalClustering returns the Watts-Strogatz network clustering
// coefficient — with a short AveragePathLength, the "small-world"
// signature the paper attributes to real complex networks.
func GlobalClustering(g *Graph, workers int) float64 {
	return analysis.GlobalClustering(g, workers)
}

// LocalClustering returns each vertex's local clustering coefficient.
func LocalClustering(g *Graph, workers int) []float64 {
	return analysis.LocalClustering(g, workers)
}

// KCore returns each vertex's core number (bucket-peeling, O(n+m)).
func KCore(g *Graph) []int { return analysis.KCore(g) }

// Degeneracy returns the maximum core number of g.
func Degeneracy(g *Graph) int { return analysis.Degeneracy(g) }

// DiameterBounds estimates the diameter of an unweighted graph by
// iterated double-sweep BFS, returning lower and upper bounds without the
// O(n^2) matrix. On complex networks the bounds typically meet.
func DiameterBounds(g *Graph, sweeps int) (lower, upper Dist) {
	return analysis.DiameterBounds(g, sweeps)
}

// PageRank computes the PageRank vector by parallel power iteration
// (damping 0.85, tolerance 1e-9 and 100 iterations when zero values are
// passed). Scores sum to 1.
func PageRank(g *Graph, damping, tol float64, maxIter, workers int) []float64 {
	return analysis.PageRank(g, damping, tol, maxIter, workers)
}

// SSSP computes one single-source distance row without APSP bookkeeping.
func SSSP(g *Graph, source int32) []Dist { return analysis.SSSPDistances(g, source) }

// DistanceOracle answers approximate distance queries from landmark rows
// in O(k*n) memory — the regime past the O(n^2) APSP memory wall.
type DistanceOracle = oracle.Oracle

// BuildOracle computes exact rows for the k highest-degree landmarks and
// returns an oracle whose Bounds(u, v) sandwich the true distance.
func BuildOracle(g *Graph, landmarks, workers int) (*DistanceOracle, error) {
	return oracle.Build(g, oracle.Options{Landmarks: landmarks, Workers: workers})
}

// Assortativity returns Newman's degree assortativity coefficient.
func Assortativity(g *Graph) float64 { return analysis.Assortativity(g) }

// LargestComponentSubgraph extracts the largest weakly connected
// component as its own graph (dense new ids), returning the mapping from
// new ids back to original ids. Running APSP on the component avoids
// filling most of the matrix with Inf on fragmented real-world graphs.
func LargestComponentSubgraph(g *Graph) (*Graph, []int32, error) {
	return g.InducedSubgraph(analysis.LargestComponent(g))
}

// DistStats reports the communication of a simulated distributed solve.
type DistStats = dist.Stats

// SolveDistributed runs the distributed-memory ParAPSP prototype (the
// paper's stated future work) on a simulated cluster of the given number
// of message-passing nodes, returning the exact distance matrix and the
// communication statistics a real MPI port would incur.
func SolveDistributed(g *Graph, nodes int) (*Matrix, DistStats, error) {
	return dist.Solve(g, dist.Config{Nodes: nodes})
}

// EstimateMatrixBytes reports the distance-matrix payload for n vertices,
// for sizing runs before committing memory (the paper's experiments are
// memory-gated: 194k vertices already need ~150 GB).
func EstimateMatrixBytes(n int) uint64 { return matrix.EstimateMemBytes(n) }
