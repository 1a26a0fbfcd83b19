// Command kernelgate is the kernel performance regression gate: it
// compares a freshly measured kernelcmp report against the checked-in
// baseline and fails when a kernel's relative cost regressed or the
// default dispatch (the report's auto row) drifted off the measured best.
//
// Comparison is ratio-against-ratio, never wall clock against wall clock:
// every report row carries vs_dijkstra, the kernel's elapsed relative to
// the same run's dijkstra row, so the gate is insensitive to the host's
// absolute speed. Two checks per dataset:
//
//   - Regression: a kernel's vs_dijkstra may not exceed baseline ×
//     (1+regressTol) + noiseEps. The additive term absorbs scheduling
//     noise on fast rows whose ratio jitters in absolute terms. The heap
//     ablation is exempt (see skipGate).
//   - Auto quality: the kernel the auto row RESOLVED to may not measure
//     more than the best concrete kernel's vs_dijkstra × (1+autoTol) +
//     noiseEps — the selector must track the per-dataset winner,
//     whatever it is today. The resolved kernel's own row is what gets
//     scored (the auto row re-runs identical code, so its separate
//     elapsed only adds measurement variance to the comparison).
//
// Usage:
//
//	go run ./scripts/kernelgate -baseline scripts/kernelgate_baseline.json report.json
//	go run ./scripts/kernelgate -write -baseline scripts/kernelgate_baseline.json report.json
//
// -write regenerates the baseline from the report instead of gating.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"parapsp/internal/bench"
)

const (
	// regressTol is the satellite contract: >10% relative regression
	// fails the gate.
	regressTol = 0.10
	// autoTol is the auto-row contract: >5% off the per-dataset best
	// fails the gate.
	autoTol = 0.05
	// noiseEps absorbs absolute ratio jitter. Sized empirically: at the
	// gate's reduced scale on an oversubscribed runner, kernels that
	// measure within 5% of each other at full scale spread by up to ~0.45
	// of the dijkstra baseline between gate runs (interleaving and
	// median-of-rounds in kernelcmp already removed the systematic
	// drift; this is the residual per-row floor). 0.5 sits above that
	// floor and well below the failures the gate exists to catch — a
	// wrong lane pick measures ≈4.5×, losing row reuse ≈60×, and any
	// real kernel regression worth a CI stop is ≥2×.
	noiseEps = 0.5
)

// skipGate excludes rows from the per-kernel regression check. The heap
// ablation exists to demonstrate a ~60x gap (no row reuse), and at that
// magnitude its ratio wobbles by several absolute units run to run —
// holding it to ±10% would gate on noise, while any failure mode worth
// catching (the ablation accidentally gaining row reuse) would show up
// as a collapse nothing here tests for. Production kernels are all
// gated.
var skipGate = map[string]bool{"heap": true}

func load(path string) (*bench.KernelCompareReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.KernelCompareReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// rowsByKernel indexes one dataset's rows.
func rowsByKernel(ds bench.KernelCompareDataset) map[string]bench.KernelCompareResult {
	m := make(map[string]bench.KernelCompareResult, len(ds.Rows))
	for _, r := range ds.Rows {
		m[r.Kernel] = r
	}
	return m
}

func main() {
	baseline := flag.String("baseline", "scripts/kernelgate_baseline.json", "checked-in baseline report")
	write := flag.Bool("write", false, "regenerate the baseline from the report instead of gating")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: kernelgate [-write] [-baseline base.json] report.json")
		os.Exit(2)
	}
	rep, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernelgate:", err)
		os.Exit(1)
	}

	if *write {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "kernelgate:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*baseline, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "kernelgate:", err)
			os.Exit(1)
		}
		fmt.Printf("kernelgate: baseline %s regenerated from %s\n", *baseline, flag.Arg(0))
		return
	}

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernelgate:", err)
		os.Exit(1)
	}
	baseSets := make(map[string]map[string]bench.KernelCompareResult, len(base.Datasets))
	for _, ds := range base.Datasets {
		baseSets[ds.Dataset] = rowsByKernel(ds)
	}

	fail := false
	for _, ds := range rep.Datasets {
		rows := rowsByKernel(ds)
		bRows := baseSets[ds.Dataset]
		if bRows == nil {
			fmt.Printf("kernelgate: %s: no baseline dataset, skipping regression check\n", ds.Dataset)
		}

		// Per-kernel regression against the baseline ratio.
		for _, r := range ds.Rows {
			if r.Kernel == "auto" || skipGate[r.Kernel] || bRows == nil {
				continue // auto is judged against the live best, below
			}
			b, ok := bRows[r.Kernel]
			if !ok {
				fmt.Printf("kernelgate: %s/%s: new kernel, no baseline row\n", ds.Dataset, r.Kernel)
				continue
			}
			limit := b.VsDijkstra*(1+regressTol) + noiseEps
			if r.VsDijkstra > limit {
				fmt.Printf("kernelgate: FAIL %s/%s: vs_dijkstra %.3f exceeds baseline %.3f +%d%% (+%.2f noise) = %.3f\n",
					ds.Dataset, r.Kernel, r.VsDijkstra, b.VsDijkstra, int(regressTol*100), noiseEps, limit)
				fail = true
			}
		}

		// Auto must track the per-dataset best concrete kernel.
		auto, ok := rows["auto"]
		if !ok {
			fmt.Printf("kernelgate: FAIL %s: report has no auto row\n", ds.Dataset)
			fail = true
			continue
		}
		best := ""
		bestRatio := 0.0
		for _, r := range ds.Rows {
			if r.Kernel == "auto" {
				continue
			}
			if best == "" || r.VsDijkstra < bestRatio {
				best, bestRatio = r.Kernel, r.VsDijkstra
			}
		}
		// Score the selector by its decision, not by re-measuring it: the
		// auto row runs the resolved kernel's exact code, so its own
		// elapsed is a second noisy draw of a kernel already in the
		// report (and the last row of the report besides, where runner
		// drift accumulates). The resolved kernel's row is the same
		// quantity with one fewer measurement in the comparison. Fall
		// back to the auto row itself only if the resolved kernel is not
		// raced (cannot happen with today's weighted datasets).
		scored := auto.VsDijkstra
		if r, ok := rows[auto.Resolved]; ok {
			scored = r.VsDijkstra
		}
		limit := bestRatio*(1+autoTol) + noiseEps
		if scored > limit {
			fmt.Printf("kernelgate: FAIL %s: auto (→%s) vs_dijkstra %.3f exceeds best kernel %s %.3f +%d%% (+%.2f noise) = %.3f\n",
				ds.Dataset, auto.Resolved, scored, best, bestRatio, int(autoTol*100), noiseEps, limit)
			fail = true
		} else {
			fmt.Printf("kernelgate: %s: auto→%s %.3f vs best %s %.3f — ok\n",
				ds.Dataset, auto.Resolved, scored, best, bestRatio)
		}
	}
	if fail {
		os.Exit(1)
	}
	fmt.Println("kernelgate: ok")
}
