package main

import (
	"sync"
	"time"
)

// spinMargin is how early the pacer stops sleeping before a due time. A
// plain time.Sleep overshoots by a fraction of a millisecond at the median
// and by several at the tail, which would be charged to every request's
// latency; the pacer sleeps to spinMargin before the due time and then
// spins until it. The spin does not call runtime.Gosched: a yielded
// goroutine waits on the global run queue, which the scheduler serves
// before it polls the network, so a yielding pacer delays the very
// responses it times (it doubled read p99 on a 2-CPU host).
const spinMargin = time.Millisecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// sendFunc performs one request on connection conn and records its
// outcome in r. Each connection has its own client, so conns bounds the
// open connections.
type sendFunc func(conn int, r *request)

// loadStats describes how faithfully an open loop kept its schedule.
type loadStats struct {
	lagP99     time.Duration // pacer dispatch time minus due time, p99
	backlogMax int           // most requests dispatched but not yet picked up
	backlogEnd int           // the same at the last dispatch
	achieved   float64       // completed rate over offered rate
}

// openLoop sends reqs, sorted by due time, on their schedule: one pacer
// goroutine dispatches each request at its due time to conns sender
// goroutines, whatever the state of earlier requests. A request that waits
// for a free connection waits in the backlog, and since its latency runs
// from its due time (request.latency), a stall is charged to every request
// queued behind it. openLoop returns when every request has completed.
func openLoop(reqs []*request, conns int, send sendFunc) loadStats {
	// Sized to the schedule, so the pacer never blocks on a dispatch.
	queue := make(chan *request, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := range queue {
				r.sent = time.Since(start)
				send(c, r)
				r.end = time.Since(start)
			}
		}(c)
	}
	var st loadStats
	lags := make([]float64, 0, len(reqs))
	for _, r := range reqs {
		waitUntil(start.Add(r.due))
		lags = append(lags, float64(time.Since(start)-r.due))
		queue <- r
		if b := len(queue); b > st.backlogMax {
			st.backlogMax = b
		}
	}
	st.backlogEnd = len(queue)
	close(queue)
	wg.Wait()
	st.lagP99 = time.Duration(quantile(lags, 0.99))
	if len(reqs) > 0 {
		var last time.Duration
		for _, r := range reqs {
			if r.end > last {
				last = r.end
			}
		}
		st.achieved = ratio(float64(reqs[len(reqs)-1].due), float64(last))
	}
	return st
}

// closedLoop keeps one request in flight per connection for the window:
// each connection sends next(conn, now) as soon as its previous request
// completes. It returns every request sent, each due when it was issued.
func closedLoop(conns int, window time.Duration, next func(conn int, now time.Duration) *request, send sendFunc) []*request {
	start := time.Now()
	sent := make([][]*request, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				now := time.Since(start)
				if now >= window {
					return
				}
				r := next(c, now)
				r.due, r.sent = now, now
				send(c, r)
				r.end = time.Since(start)
				sent[c] = append(sent[c], r)
			}
		}(c)
	}
	wg.Wait()
	var all []*request
	for _, s := range sent {
		all = append(all, s...)
	}
	return all
}
