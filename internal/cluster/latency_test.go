package cluster

import (
	"math/rand"
	"testing"
	"time"

	"parapsp/internal/obs"
)

// TestLatencyWindowP90 pins the element p90 returns: the one at index
// n*9/10 of the sorted window, for partly filled, nearly full, full and
// wrapped windows.
func TestLatencyWindowP90(t *testing.T) {
	cases := []struct {
		observed int // samples 1..observed ms, in shuffled order
		want     time.Duration
	}{
		{1, 1 * time.Millisecond},   // index 0 of 1
		{10, 10 * time.Millisecond}, // index 9 of 10
		{63, 57 * time.Millisecond}, // index 56 of 63
		{64, 58 * time.Millisecond}, // index 57 of 64
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		l := newLatencyWindow(obs.NewMetrics().Timing("t"))
		for _, i := range rng.Perm(c.observed) {
			l.observe(time.Duration(i+1) * time.Millisecond)
		}
		got, ok := l.p90()
		if !ok || got != c.want {
			t.Errorf("fill %d: p90 = %v, %v; want %v", c.observed, got, ok, c.want)
		}
	}

	// Once the window wraps, only the last 64 samples count: 101..164 ms.
	l := newLatencyWindow(obs.NewMetrics().Timing("t"))
	for i := 1; i <= 164; i++ {
		l.observe(time.Duration(i) * time.Millisecond)
	}
	if got, _ := l.p90(); got != 158*time.Millisecond {
		t.Errorf("wrapped window: p90 = %v, want 158ms", got)
	}
	if _, ok := newLatencyWindow(obs.NewMetrics().Timing("t")).p90(); ok {
		t.Error("empty window reports a p90")
	}
}

// TestLatencyWindowP90Allocs pins that the hedge delay, computed on every
// routed request, allocates nothing.
func TestLatencyWindowP90Allocs(t *testing.T) {
	l := newLatencyWindow(obs.NewMetrics().Timing("t"))
	for i := 0; i < latencyWindowSize; i++ {
		l.observe(time.Duration(latencyWindowSize-i) * time.Microsecond)
	}
	if allocs := testing.AllocsPerRun(100, func() { l.p90() }); allocs != 0 {
		t.Fatalf("p90 allocates %.1f per call", allocs)
	}
}
