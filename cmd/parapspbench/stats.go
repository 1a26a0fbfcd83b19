package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1), sorting
// xs in place; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds, keeping every digit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (the layer saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampleEvery is the peak-heap sampling period (20 Hz).
const heapSampleEvery = 50 * time.Millisecond

// peakHeap runs fn while sampling the bytes of live and not yet swept heap
// objects every heapSampleEvery, and returns the largest sample in MiB.
func peakHeap(fn func()) float64 {
	stop, done := make(chan struct{}), make(chan uint64)
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	return float64(<-done) / (1 << 20)
}
