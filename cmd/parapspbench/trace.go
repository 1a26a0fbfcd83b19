package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"parapsp/internal/admit"
)

// Span layers, outermost first. A span's parent is the innermost enclosing
// span of the same request on an outer layer.
const (
	layerClient = iota // the load generator's request, or one full solve
	layerRouter        // cluster.Router.Handler, or a solve phase
	layerShard         // serve.Server.Handler
)

// span is one timed call at a layer boundary. Spans of one request share
// req: the X-Parapsp-Client label the load generator sets in a traced run,
// which the router forwards to every shard attempt, hedges included.
type span struct {
	name       string
	layer      int
	req        string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// wrap records one span per request served by h.
func (l *spanLog) wrap(name string, layer int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		l.add(span{name: name + " " + r.URL.Path, layer: layer,
			req: r.Header.Get(admit.ClientHeader), start: start, end: time.Now()})
	})
}

// byRequest groups spans by request label, each group ordered outermost
// layer first, then by start time.
func byRequest(spans []span) map[string][]span {
	groups := make(map[string][]span)
	for _, s := range spans {
		groups[s.req] = append(groups[s.req], s)
	}
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool {
			if g[i].layer != g[j].layer {
				return g[i].layer < g[j].layer
			}
			return g[i].start.Before(g[j].start)
		})
	}
	return groups
}

// parentOf returns the index in group of group[i]'s parent, or -1.
func parentOf(group []span, i int) int {
	best := -1
	for j, p := range group {
		if p.layer < group[i].layer && (best < 0 || p.layer > group[best].layer) &&
			!group[i].start.Before(p.start) && !group[i].end.After(p.end) {
			best = j
		}
	}
	return best
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if a.Before(b) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case x.a.After(cur.b):
			covered += cur.b.Sub(cur.a)
			cur = x
		case x.b.After(cur.b):
			cur.b = x.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.dur() - covered
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace_event JSON: name, start and
// duration in microseconds, and in args the span id, its parent's id (0
// for a root) and the request label.
func (l *spanLog) writeChrome(path string) error {
	var events []traceEvent
	id := 0
	for _, group := range byRequest(l.snapshot()) {
		base := id
		for i, s := range group {
			parent := 0
			if p := parentOf(group, i); p >= 0 {
				parent = base + p + 1
			}
			events = append(events, traceEvent{
				Name: s.name, Cat: strings.Fields(s.name)[0], Ph: "X",
				Ts:  float64(s.start.Sub(l.epoch).Nanoseconds()) / 1e3,
				Dur: float64(s.dur().Nanoseconds()) / 1e3,
				Pid: 1, Tid: s.layer,
				Args: map[string]any{"id": base + i + 1, "parent": parent, "req": s.req},
			})
		}
		id += len(group)
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
