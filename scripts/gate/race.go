package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"parapsp/internal/core"
	"parapsp/internal/gen"
	"parapsp/internal/graph"
)

// The kernel race: every registered kernel that solves weighted graphs,
// plus the default dispatch, through the same ParAPSP pipeline on a
// weighted power-law graph and a weighted grid, each as a full solve and
// as a seeded 64-source subset solve (a serving miss, where few finished
// rows exist to fold).
const (
	raceN       = 1100 // above the lane engines' 1024-vertex floor
	raceSide    = 33   // the grid: 33x33, the largest square of at most raceN vertices
	raceWorkers = 8    // the kernels' parallel regime, whatever the host's cores
	raceRounds  = 4
	raceSubset  = 64
)

// raceKernels are the raced rows: dijkstra first, since every ratio is
// relative to it, then every other kernel that solves weighted graphs,
// and the auto row last. TestRaceKernelsCoverRegistry pins the list
// against the registry.
var raceKernels = []string{
	core.KernelDijkstra,
	core.KernelDeltaStar,
	core.KernelHeap,
	core.KernelSweep,
	autoRow,
}

// solveFunc runs one solve with the named kernel and returns the result's
// checksum and the kernel that ran.
type solveFunc func(kern string) (uint64, string, error)

// race runs the kernel race. The dynamic schedule keeps oversubscription
// harmless for relative wall clock, so it runs at raceWorkers on any host.
func race() ([]dataset, error) {
	if prev := runtime.GOMAXPROCS(0); raceWorkers > prev {
		runtime.GOMAXPROCS(raceWorkers)
		defer runtime.GOMAXPROCS(prev)
	}
	w := gen.Weighting{Min: 1, Max: 100}
	graphs := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"power-law", func() (*graph.Graph, error) { return gen.PowerLawConfiguration(raceN, 2.5, 2, true, seed, w) }},
		{"grid", func() (*graph.Graph, error) { return gen.Grid2D(raceSide, raceSide, true, seed, w) }},
	}
	var out []dataset
	for _, gr := range graphs {
		g, err := gr.build()
		if err != nil {
			return nil, err
		}
		sources := make([]int32, raceSubset)
		for i, v := range rand.New(rand.NewSource(seed)).Perm(g.N())[:raceSubset] {
			sources[i] = int32(v)
		}
		opts := func(kern string) core.Options { return core.Options{Workers: raceWorkers, Kernel: kern} }
		full := func(kern string) (uint64, string, error) {
			res, err := core.Solve(g, core.ParAPSP, opts(kern))
			if err != nil {
				return 0, "", err
			}
			return res.D.Checksum(), res.Kernel, nil
		}
		subset := func(kern string) (uint64, string, error) {
			sub, err := core.SolveSubset(g, sources, opts(kern))
			if err != nil {
				return 0, "", err
			}
			return sub.Checksum(), sub.Kernel, nil
		}
		for _, c := range []struct {
			name  string
			solve solveFunc
		}{
			{gr.name, full},
			{fmt.Sprintf("%s/subset%d", gr.name, raceSubset), subset},
		} {
			ds, err := raceDataset(c.name, c.solve)
			if err != nil {
				return nil, err
			}
			out = append(out, ds)
		}
	}
	return out, nil
}

// raceDataset times solve for every kernel over raceRounds rounds.
//
// Rounds are interleaved, not per-kernel batches: the datum is the ratio
// to the dijkstra row, and on a shared runner absolute throughput drifts
// over the seconds a batched sweep takes. Round-robin makes every
// kernel's rounds span the same wall-clock epochs, so drift cancels in
// the ratio. Each row then takes its median round, so a scheduler spike
// or GC pause on one kernel's turn is discarded instead of averaged in.
func raceDataset(name string, solve solveFunc) (dataset, error) {
	ds := dataset{Name: name, Rows: make([]row, len(raceKernels))}
	rounds := make([][]time.Duration, len(raceKernels))
	for round := 0; round < raceRounds; round++ {
		for ki, kern := range raceKernels {
			// Collect the previous solve's garbage outside the timing
			// window: each discarded matrix is large.
			runtime.GC()
			start := time.Now()
			sum, ran, err := solve(kern)
			if err != nil {
				return ds, fmt.Errorf("%s on %s: %w", kern, name, err)
			}
			rounds[ki] = append(rounds[ki], time.Since(start))
			ds.Rows[ki] = row{Kernel: kern, Checksum: sum}
			if kern == autoRow {
				ds.Rows[ki].Resolved = ran
			}
		}
	}
	dij := median(rounds[0])
	for ki := range ds.Rows {
		ds.Rows[ki].Ratio = float64(median(rounds[ki])) / float64(dij)
	}
	return ds, nil
}

// median returns the median of xs (the mean of the middle pair for even
// lengths), sorting xs in place.
func median[T time.Duration | float64](xs []T) T {
	slices.Sort(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}
