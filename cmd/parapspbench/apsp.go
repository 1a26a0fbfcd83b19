package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"parapsp/internal/baseline"
	"parapsp/internal/core"
)

func runAPSPPowerLaw(e *env) (*outcome, error) {
	in, err := powerLawInput(e.n, e.seed)
	if err != nil {
		return nil, err
	}
	return runAPSP(e, in)
}

func runAPSPGrid(e *env) (*outcome, error) {
	in, err := gridInput(e.n, e.seed)
	if err != nil {
		return nil, err
	}
	return runAPSP(e, in)
}

// solveLog collects the phase timings and work counters of full solves.
type solveLog struct {
	ordering, sssp []float64 // ms
	stats          core.Counters
	engine, kernel string
}

func (l *solveLog) add(res *core.Result) {
	l.ordering = append(l.ordering, ms(res.OrderingTime))
	l.sssp = append(l.sssp, ms(res.SSSPTime))
	l.stats, l.engine, l.kernel = res.Stats, res.Engine, res.Kernel
}

// metrics reports the median phase times and one solve's exact counters.
func (l *solveLog) metrics(m map[string]float64) {
	c := l.stats
	m["order.ordering_ms"] = median(l.ordering)
	m["core.sssp_ms"] = median(l.sssp)
	m["core.edge_scans"] = float64(c.EdgeScans)
	m["core.pops"] = float64(c.Pops)
	m["core.folds"] = float64(c.Folds)
	m["core.batch_sweeps"] = float64(c.BatchSweeps)
	m["core.fold_skip_ratio"] = ratio(float64(c.FoldsSkipped), float64(c.Folds+c.FoldsSkipped))
}

// runAPSP times full ParAPSP solves back to back with Workers = GOMAXPROCS
// and every other option at its default: two warm solves, then solves
// until the window ends, each preceded, outside its timing, by a garbage
// collection and by one timed repetition of the set-up, the gio load of
// the generated edge list. Set-up samples spread over the window this way
// see the same host conditions as the solves. Every solve's checksum must
// equal the Dijkstra reference's.
func runAPSP(e *env, in *input) (*outcome, error) {
	oc := &outcome{metrics: map[string]float64{}}
	g, n := in.g, in.g.N()
	want := baseline.DijkstraAPSP(g).Checksum()
	opts := core.Options{Workers: e.procs}

	solve := func(i int) (*core.Result, time.Duration, error) {
		start := time.Now()
		res, err := core.Solve(g, core.ParAPSP, opts)
		end := time.Now()
		if err == nil && e.spans != nil {
			req := "solve" + strconv.Itoa(i)
			order := start.Add(res.OrderingTime)
			e.spans.add(span{name: "solve", layer: layerClient, req: req, start: start, end: end})
			e.spans.add(span{name: "order", layer: layerRouter, req: req, start: start, end: order})
			e.spans.add(span{name: "sssp", layer: layerRouter, req: req, start: order, end: order.Add(res.SSSPTime)})
		}
		return res, end.Sub(start), err
	}
	for i := 0; i < 2; i++ {
		if _, _, err := solve(-1 - i); err != nil {
			return nil, err
		}
	}

	var lat, loads []float64
	var log solveLog
	var busy time.Duration
	var rows int64
	heap := peakHeap(func() {
		for start := time.Now(); time.Since(start) < e.window; {
			runtime.GC()
			_, setup, err := in.load()
			if err != nil {
				oc.fail(e.out, "set-up: %v", err)
				continue
			}
			loads = append(loads, setup.Seconds())
			oc.attempted++
			res, d, err := solve(int(oc.attempted))
			if err != nil {
				oc.fail(e.out, "solve %d: %v", oc.attempted, err)
				continue
			}
			if got := res.D.Checksum(); got != want {
				oc.fail(e.out, "solve %d checksum %x, reference %x", oc.attempted, got, want)
				continue
			}
			lat = append(lat, ms(d))
			log.add(res)
			busy += d
			rows += int64(n)
		}
	})
	fmt.Fprintf(e.out, "graph: n=%d arcs=%d weighted=%v engine=%s kernel=%s\n",
		n, g.NumArcs(), g.Weighted(), log.engine, log.kernel)
	fmt.Fprintf(e.out, "solves: n=%d p50 %.4g p90 %.4g p99 %.4g ms\n",
		len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99))

	m := oc.metrics
	if e.spans == nil {
		m["setup_s"] = median(loads)
		m["peak_heap_mib"] = heap
		m["p50_ms"] = median(lat)
		m["capacity_per_s"] = float64(rows) / busy.Seconds()
		return oc, nil
	}
	log.metrics(m)
	m["trace.p50_ms"] = median(lat)
	for _, name := range trafficMetrics {
		m[name] = 0
	}
	// The reference matrix is rebuilt for the probes rather than held
	// through the window, where it would count in the peak heap.
	if err := probeLayers(e, in, baseline.DijkstraAPSP(g), nil, oc); err != nil {
		return nil, err
	}
	return oc, nil
}
