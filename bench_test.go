package parapsp

// One testing.B benchmark per table and figure of the paper's evaluation,
// wrapping the same code paths as the apspbench experiments (see
// internal/bench and EXPERIMENTS.md). Sizes are container-scale: the
// workloads are the deterministic dataset stand-ins at small scale so the
// full -bench=. sweep completes in minutes.
//
// Naming: Benchmark<ExperimentID>... matches DESIGN.md's per-experiment
// index; sub-benchmarks carry the thread count and variant.

import (
	"fmt"
	"testing"

	"parapsp/internal/analysis"
	"parapsp/internal/baseline"
	"parapsp/internal/core"
	"parapsp/internal/datasets"
	"parapsp/internal/dist"
	"parapsp/internal/graph"
	"parapsp/internal/oracle"
	"parapsp/internal/order"
	"parapsp/internal/sched"
)

var benchThreads = []int{1, 2, 4, 8, 16}

// cached workloads, built once per process.
var benchGraphs = map[string]*graph.Graph{}

func benchGraph(b *testing.B, name string, scale float64) *graph.Graph {
	b.Helper()
	key := fmt.Sprintf("%s@%g", name, scale)
	if g, ok := benchGraphs[key]; ok {
		return g
	}
	g, _, err := datasets.Synthesize(name, scale, 42)
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[key] = g
	return g
}

func solveBench(b *testing.B, g *graph.Graph, alg core.Algorithm, opts core.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(g, alg, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Ordering regenerates Table 1: the selection-sort ordering
// of ParAlg2 vs the ParBuckets ordering, across thread counts.
func BenchmarkTable1Ordering(b *testing.B) {
	g := benchGraph(b, "WordNet", 0.1)
	degrees := g.Degrees()
	for _, proc := range []order.Procedure{order.Selection, order.ParBucketsProc} {
		for _, p := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", proc, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := order.Run(proc, degrees, order.Config{Workers: p}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig1Schedule regenerates Figure 1: the loop-schedule effect on
// the SSSP phase of ParAlg2 (ca-HepPh workload, fixed selection order).
func BenchmarkFig1Schedule(b *testing.B) {
	g := benchGraph(b, "ca-HepPh", 0.08)
	src := order.SelectionSort(g.Degrees(), 1.0)
	for _, scheme := range []sched.Scheme{sched.Block, sched.StaticCyclic, sched.DynamicCyclic} {
		for _, p := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/threads=%d", scheme, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := core.SSSPPhase(g, src, p, scheme, core.Options{Kernel: core.KernelDijkstra}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig3DegreeHistogram regenerates the data behind Figure 3.
func BenchmarkFig3DegreeHistogram(b *testing.B) {
	g := benchGraph(b, "WordNet", 0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.DegreeHistogram()
	}
}

// BenchmarkFig4Ordering regenerates Figure 4: ParBuckets vs ParMax.
func BenchmarkFig4Ordering(b *testing.B) {
	g := benchGraph(b, "WordNet", 0.1)
	degrees := g.Degrees()
	for _, proc := range []order.Procedure{order.ParBucketsProc, order.ParMaxProc} {
		for _, p := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", proc, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := order.Run(proc, degrees, order.Config{Workers: p}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig5SSSPByOrder regenerates Figure 5: the Dijkstra-phase time
// under selection / ParBuckets / ParMax orders.
func BenchmarkFig5SSSPByOrder(b *testing.B) {
	g := benchGraph(b, "WordNet", 0.01)
	degrees := g.Degrees()
	orders := map[string][]int32{
		"selection":  order.SelectionSort(degrees, 1.0),
		"parbuckets": order.ParBuckets(degrees, 4, 100),
		"parmax":     order.ParMax(degrees, 4, 0.01),
	}
	for name, src := range orders {
		for _, p := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/threads=%d", name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := core.SSSPPhase(g, src, p, sched.DynamicCyclic, core.Options{Kernel: core.KernelDijkstra}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6Ordering regenerates Figure 6: ParMax vs MultiLists,
// including the large-graph MultiLists runs of Section 4.3.
func BenchmarkFig6Ordering(b *testing.B) {
	g := benchGraph(b, "WordNet", 0.1)
	degrees := g.Degrees()
	for _, proc := range []order.Procedure{order.ParMaxProc, order.MultiListsProc} {
		for _, p := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", proc, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := order.Run(proc, degrees, order.Config{Workers: p}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	for _, name := range []string{"soc-Pokec", "soc-LiveJournal1"} {
		bigDeg, _, err := datasets.SynthesizeDegrees(name, 0.05, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range []int{1, 8} {
			b.Run(fmt.Sprintf("multi-lists-large/%s/threads=%d", name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					order.MultiLists(bigDeg, p, 0.1)
				}
			})
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: ParAlg1 vs ParAlg2 on Flickr.
func BenchmarkFig7(b *testing.B) {
	g := benchGraph(b, "Flickr", 0.008)
	for _, alg := range []core.Algorithm{core.ParAlg1, core.ParAlg2} {
		for _, p := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/threads=%d", alg, p), func(b *testing.B) {
				solveBench(b, g, alg, core.Options{Workers: p})
			})
		}
	}
}

// BenchmarkFig8 regenerates Figure 8 (and the measurements behind
// Figure 9's speedups): ParAlg1 / ParAlg2 / ParAPSP on WordNet.
func BenchmarkFig8(b *testing.B) {
	g := benchGraph(b, "WordNet", 0.01)
	for _, alg := range []core.Algorithm{core.ParAlg1, core.ParAlg2, core.ParAPSP} {
		for _, p := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", alg, p), func(b *testing.B) {
				solveBench(b, g, alg, core.Options{Workers: p})
			})
		}
	}
}

// BenchmarkFig10 regenerates Figure 10: ParAPSP on every Table 2 dataset.
func BenchmarkFig10(b *testing.B) {
	for _, in := range datasets.Table2() {
		g := benchGraph(b, in.Name, 0.008)
		for _, p := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/threads=%d", in.Name, p), func(b *testing.B) {
				solveBench(b, g, core.ParAPSP, core.Options{Workers: p})
			})
		}
	}
}

// BenchmarkSeqGap regenerates the Section 2/5.2 sequential comparison:
// basic vs optimized vs adaptive.
func BenchmarkSeqGap(b *testing.B) {
	g := benchGraph(b, "WordNet", 0.01)
	for _, alg := range []core.Algorithm{core.SeqBasic, core.SeqOptimized, core.SeqAdaptive} {
		b.Run(alg.String(), func(b *testing.B) {
			solveBench(b, g, alg, core.Options{})
		})
	}
}

// BenchmarkBaselines positions the Peng-family algorithms against the
// classic APSP algorithms of Sections 2 and 6.
func BenchmarkBaselines(b *testing.B) {
	g := benchGraph(b, "ca-HepPh", 0.05)
	b.Run("floyd-warshall", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			baseline.FloydWarshall(g)
		}
	})
	b.Run("repeated-heap-dijkstra", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			baseline.DijkstraAPSP(g)
		}
	})
	b.Run("repeated-spfa", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			baseline.SPFAAPSP(g)
		}
	})
	b.Run("seq-basic", func(b *testing.B) {
		solveBench(b, g, core.SeqBasic, core.Options{})
	})
	b.Run("seq-optimized", func(b *testing.B) {
		solveBench(b, g, core.SeqOptimized, core.Options{})
	})
}

// BenchmarkAblationQueue measures the queue-dedup ablation.
func BenchmarkAblationQueue(b *testing.B) {
	g := benchGraph(b, "Flickr", 0.008)
	for _, paper := range []bool{false, true} {
		name := "dedup"
		if paper {
			name = "paper-duplicates"
		}
		b.Run(name, func(b *testing.B) {
			solveBench(b, g, core.ParAPSP, core.Options{Workers: 4, PaperQueue: paper})
		})
	}
}

// BenchmarkAblationRowReuse measures the dynamic-programming row-reuse
// ablation — the mechanism the paper credits for hyper-linear speedup.
func BenchmarkAblationRowReuse(b *testing.B) {
	g := benchGraph(b, "WordNet", 0.01)
	for _, disable := range []bool{false, true} {
		name := "reuse-on"
		if disable {
			name = "reuse-off"
		}
		b.Run(name, func(b *testing.B) {
			solveBench(b, g, core.ParAPSP, core.Options{Workers: 4, DisableRowReuse: disable})
		})
	}
}

// BenchmarkAblationBucketCount measures order quality vs bucket count
// through the SSSP phase it induces.
func BenchmarkAblationBucketCount(b *testing.B) {
	g := benchGraph(b, "WordNet", 0.01)
	degrees := g.Degrees()
	cases := map[string][]int32{
		"buckets-101":  order.ParBuckets(degrees, 4, 100),
		"buckets-1001": order.ParBuckets(degrees, 4, 1000),
		"exact-parmax": order.ParMax(degrees, 4, 0.01),
	}
	for name, src := range cases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.SSSPPhase(g, src, 4, sched.DynamicCyclic, core.Options{Kernel: core.KernelDijkstra}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModifiedDijkstraSingleSource isolates one SSSP run — the unit
// of work the parallel loop distributes.
func BenchmarkModifiedDijkstraSingleSource(b *testing.B) {
	g := benchGraph(b, "WordNet", 0.02)
	b.Run("cold-flags", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dist := make([]Dist, g.N())
			baseline.SPFASSSP(g, 0, dist)
		}
	})
}

// BenchmarkMultiListsScaling shows MultiLists' O(n) ordering across input
// sizes (the general-sorting claim).
func BenchmarkMultiListsScaling(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		degrees, _, err := datasets.SynthesizeDegrees("soc-LiveJournal1", float64(n)/4847571.0, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", len(degrees)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				order.MultiLists(degrees, 8, 0.1)
			}
		})
	}
}

// BenchmarkDistMem measures the future-work distributed prototype across
// node counts.
func BenchmarkDistMem(b *testing.B) {
	g := benchGraph(b, "WordNet", 0.01)
	for _, nodes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := dist.Solve(g, dist.Config{Nodes: nodes}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlockedFloydWarshall positions the tiled O(n^3) baseline.
func BenchmarkBlockedFloydWarshall(b *testing.B) {
	g := benchGraph(b, "ca-HepPh", 0.05)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				baseline.BlockedFloydWarshall(g, workers)
			}
		})
	}
}

// BenchmarkSolveSubset measures the memory-bounded subset solver.
func BenchmarkSolveSubset(b *testing.B) {
	g := benchGraph(b, "WordNet", 0.05)
	sources := make([]int32, 64)
	for i := range sources {
		sources[i] = int32(i * g.N() / len(sources))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveSubset(g, sources, core.Options{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBetweenness measures the Brandes layer over the same scheduling
// substrate.
func BenchmarkBetweenness(b *testing.B) {
	g := benchGraph(b, "WordNet", 0.02)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				analysis.Betweenness(g, workers)
			}
		})
	}
}

// BenchmarkOracleBuild measures landmark-oracle construction, the
// past-the-memory-wall path.
func BenchmarkOracleBuild(b *testing.B) {
	g := benchGraph(b, "WordNet", 0.05)
	for _, k := range []int{8, 32} {
		b.Run(fmt.Sprintf("landmarks=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := oracle.Build(g, oracle.Options{Landmarks: k, Workers: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
