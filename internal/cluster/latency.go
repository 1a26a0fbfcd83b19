package cluster

import (
	"slices"
	"sync"
	"time"

	"parapsp/internal/obs"
)

// latencyWindowSize is the per-shard sample window backing the adaptive
// hedge delay. 64 recent successes: enough to make the p90 stable, small
// enough that a recovered shard sheds its bad history within a second of
// normal traffic.
const latencyWindowSize = 64

// latencyWindow tracks one shard's recent successful request latencies.
// observe() is taken on every 200 the router receives from the shard;
// p90() backs the hedging policy. The cumulative timing (count + sum_ns)
// is published through the metrics registry so the hedge policy's inputs
// are externally visible.
type latencyWindow struct {
	mu     sync.Mutex
	buf    [latencyWindowSize]time.Duration
	filled int
	next   int
	timing obs.Timing
}

func newLatencyWindow(t obs.Timing) *latencyWindow {
	return &latencyWindow{timing: t}
}

func (l *latencyWindow) observe(d time.Duration) {
	l.timing.Observe(int64(d))
	l.mu.Lock()
	l.buf[l.next] = d
	l.next = (l.next + 1) % latencyWindowSize
	if l.filled < latencyWindowSize {
		l.filled++
	}
	l.mu.Unlock()
}

// p90 returns the 90th-percentile latency over the window, or false when
// no sample has been recorded yet. It runs on every routed request, so it
// sorts a stack copy of the window and allocates nothing.
func (l *latencyWindow) p90() (time.Duration, bool) {
	l.mu.Lock()
	n := l.filled
	var tmp [latencyWindowSize]time.Duration
	copy(tmp[:n], l.buf[:n])
	l.mu.Unlock()
	if n == 0 {
		return 0, false
	}
	s := tmp[:n]
	slices.Sort(s)
	return s[(n*9)/10], true
}
