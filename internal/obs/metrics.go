package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically updated atomic int64 metric. The zero value
// is ready to use; obtain named counters from a Metrics registry.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Set overwrites the counter (gauge-style use: phase durations, sizes).
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Metrics is a registry of named atomic counters. Registration takes a
// mutex; the counters themselves are lock-free, so the pattern is to look
// a counter up once (outside the hot loop) and Add on the handle. It
// absorbs the solver's ad-hoc work counters (published under "core.*" by
// Result.PublishMetrics) and the scheduler's dispatch/idle accounting
// ("sched.*").
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{counters: map[string]*Counter{}} }

// Counter returns the named counter, creating it at zero on first use.
// Safe for concurrent use.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Timing is a pair of counters recording a duration distribution's mass:
// <name>.count observations and <name>.sum_ns total nanoseconds. It rides
// the plain counter registry, so timings export through Snapshot/WriteJSON
// with no new machinery; consumers derive the mean and rate. The cluster
// router publishes one per shard (cluster.shard.<id>.latency) to back its
// hedging decisions with visible data.
type Timing struct {
	count, sum *Counter
}

// Timing returns the named timing, creating its counter pair on first use.
func (m *Metrics) Timing(name string) Timing {
	return Timing{count: m.Counter(name + ".count"), sum: m.Counter(name + ".sum_ns")}
}

// Observe records one duration in nanoseconds.
func (t Timing) Observe(ns int64) {
	t.count.Add(1)
	t.sum.Add(ns)
}

// ObserveSince records the time elapsed since start.
func (t Timing) ObserveSince(start time.Time) { t.Observe(time.Since(start).Nanoseconds()) }

// Count returns the number of observations.
func (t Timing) Count() int64 { return t.count.Load() }

// MeanNs returns the mean observation in nanoseconds (0 when empty).
func (t Timing) MeanNs() int64 {
	n := t.count.Load()
	if n == 0 {
		return 0
	}
	return t.sum.Load() / n
}

// CounterVec is a small fixed family of counters sharing a name prefix,
// one per label — the per-tier admission counters ("admit.admitted" split
// into "admit.premium.admitted" / "admit.besteffort.admitted") are the
// motivating use. Labels are fixed at construction so the hot path is one
// slice index plus an atomic add, and every member exports through the
// ordinary registry snapshot under "<prefix>.<label>.<name>".
type CounterVec struct {
	counters []*Counter
}

// CounterVec returns the named counter family: one counter per label, in
// label order, registered as "<prefix>.<label>.<name>".
func (m *Metrics) CounterVec(prefix, name string, labels []string) *CounterVec {
	v := &CounterVec{counters: make([]*Counter, len(labels))}
	for i, l := range labels {
		v.counters[i] = m.Counter(prefix + "." + l + "." + name)
	}
	return v
}

// At returns the counter of the i-th label. The index is the caller's
// label enum (e.g. a Tier); out-of-range indices panic, as a mis-sized
// enum is a programming error.
func (v *CounterVec) At(i int) *Counter { return v.counters[i] }

// Snapshot returns a point-in-time copy of every counter.
func (m *Metrics) Snapshot() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.counters))
	for name, c := range m.counters {
		out[name] = c.Load()
	}
	return out
}

// WriteJSON writes the snapshot as an indented flat JSON object with
// lexicographically sorted keys (encoding/json's map ordering), the blob
// apsp -metrics prints on stdout.
func (m *Metrics) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
