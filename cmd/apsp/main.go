// Command apsp computes exact all-pairs shortest paths on an edge-list
// file (SNAP/KONECT format, optionally gzipped) with the paper's ParAPSP
// algorithm and prints the network statistics the paper's introduction
// motivates: diameter, radius, average path length, and the most central
// vertices.
//
// Usage:
//
//	apsp -in graph.txt -undirected -workers 8
//	apsp -in social.txt.gz -undirected -top 20
//	apsp -in roads.txt -weighted -algorithm ParAlg2
//	apsp -in roads.txt -weighted -kernel delta
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"parapsp"
	"parapsp/internal/core"
	"parapsp/internal/gio"
	"parapsp/internal/obs"
)

func main() {
	var lf gio.LoadFlags
	lf.Register(flag.CommandLine, "in")
	var (
		workers   = flag.Int("workers", 1, "parallel workers")
		algorithm = flag.String("algorithm", "ParAPSP", "seq-basic|seq-optimized|seq-adaptive|ParAlg1|ParAlg2|ParAPSP")
		kernelSel = flag.String("kernel", "", "SSSP kernel: "+strings.Join(core.Kernels(), "|")+"; empty or "+core.KernelAuto+" picks from the graph and the options")
		top       = flag.Int("top", 10, "how many central vertices to print")
		pathQuery = flag.String("path", "", "print a shortest path between two original vertex ids, e.g. -path 17,4025")
		maxMem    = flag.Uint64("maxmem-mb", 8192, "distance-matrix memory bound in MiB")
		trace     = flag.String("trace", "", "record the solve and write a Chrome trace_event JSON (load in Perfetto) to this path")
		metrics   = flag.Bool("metrics", false, "record the solve and print its work/scheduler counters as JSON")
	)
	flag.Parse()
	if lf.Path == "" {
		flag.Usage()
		os.Exit(2)
	}

	alg, err := core.ParseAlgorithm(*algorithm)
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	loaded, err := lf.Load()
	if err != nil {
		fatal(err)
	}
	g, labels := loaded.Graph, loaded.Labels
	fmt.Printf("loaded %v in %s\n", g, time.Since(start).Round(time.Millisecond))

	if need := parapsp.EstimateMatrixBytes(g.N()); need > *maxMem<<20 {
		fatal(fmt.Errorf("distance matrix needs %d MiB, bound is %d MiB (raise -maxmem-mb)", need>>20, *maxMem))
	}

	var rec *obs.Recorder
	if *trace != "" || *metrics {
		w := *workers
		if w < 1 {
			w = 1
		}
		rec = obs.New(w)
	}
	res, err := parapsp.SolveWith(g, alg, core.Options{
		Workers:     *workers,
		Kernel:      *kernelSel,
		MaxMemBytes: *maxMem << 20,
		TrackPaths:  *pathQuery != "",
		Obs:         rec,
	})
	if err != nil {
		fatal(err)
	}
	if rec != nil {
		rec.Stop()
		if *trace != "" {
			if err := writeTrace(*trace, rec); err != nil {
				fatal(err)
			}
			fmt.Fprintln(os.Stderr, "wrote trace to", *trace)
		}
		if *metrics {
			if err := rec.Metrics().WriteJSON(os.Stdout); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Printf("APSP (%s, kernel %s, %d workers): ordering %s + sssp %s = %s\n",
		res.Algorithm, res.Kernel, res.Workers,
		res.OrderingTime.Round(time.Microsecond),
		res.SSSPTime.Round(time.Microsecond),
		res.Total().Round(time.Microsecond))

	D := res.D
	fmt.Printf("diameter: %s\n", distString(parapsp.Diameter(D)))
	fmt.Printf("radius:   %s\n", distString(parapsp.Radius(D)))
	fmt.Printf("average path length: %.4f\n", parapsp.AveragePathLength(D))

	label := func(v int) int64 {
		if labels != nil {
			return labels[v]
		}
		return int64(v)
	}
	clo := parapsp.Closeness(D)
	fmt.Printf("top %d by closeness centrality:\n", *top)
	for rank, v := range parapsp.TopK(clo, *top) {
		fmt.Printf("  %2d. vertex %-12d closeness=%.5f degree=%d\n",
			rank+1, label(v), clo[v], g.OutDegree(int32(v)))
	}

	if *pathQuery != "" {
		if err := printPath(*pathQuery, g, res, labels); err != nil {
			fatal(err)
		}
	}
}

// printPath resolves a "u,v" query in original labels, reconstructs a
// shortest path, and prints it back in original labels.
func printPath(query string, g *parapsp.Graph, res *parapsp.Result, labels []int64) error {
	var u, v int64
	if _, err := fmt.Sscanf(query, "%d,%d", &u, &v); err != nil {
		return fmt.Errorf("bad -path %q (want \"u,v\"): %v", query, err)
	}
	find := func(l int64) (int32, error) {
		if labels == nil {
			if l < 0 || l >= int64(g.N()) {
				return 0, fmt.Errorf("vertex %d out of range", l)
			}
			return int32(l), nil
		}
		for id, x := range labels {
			if x == l {
				return int32(id), nil
			}
		}
		return 0, fmt.Errorf("vertex %d not in graph", l)
	}
	us, err := find(u)
	if err != nil {
		return err
	}
	vs, err := find(v)
	if err != nil {
		return err
	}
	path := res.Next.Path(us, vs)
	if path == nil {
		fmt.Printf("no path %d -> %d\n", u, v)
		return nil
	}
	fmt.Printf("shortest path %d -> %d (distance %s, %d hops):\n  ", u, v,
		distString(res.D.At(int(us), int(vs))), len(path)-1)
	for i, x := range path {
		if i > 0 {
			fmt.Print(" -> ")
		}
		if labels != nil {
			fmt.Print(labels[x])
		} else {
			fmt.Print(x)
		}
	}
	fmt.Println()
	return nil
}

// writeTrace dumps the recorder's merged events as a Chrome trace file.
func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func distString(d parapsp.Dist) string {
	if d == parapsp.Inf {
		return "inf"
	}
	return fmt.Sprint(uint32(d))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apsp:", err)
	os.Exit(1)
}
