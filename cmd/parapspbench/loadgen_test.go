package main

import (
	"testing"
	"time"
)

// A request that stalls the only connection delays every request due
// during the stall. The open loop must charge that wait to them: their
// latency runs from their due time, so it covers the stall even though
// their own service time is nil.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	var reqs []*request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, &request{id: i, due: time.Duration(i) * time.Millisecond})
	}
	stalled := reqs[10]
	openLoop(reqs, 1, func(_ int, r *request) {
		if r == stalled {
			time.Sleep(stall)
		}
	})
	if got := stalled.end - stalled.sent; got < stall {
		t.Fatalf("stalled request served in %s, want >= %s", got, stall)
	}
	for _, r := range reqs[11:] {
		waited := stalled.end - r.due
		if r.latency() < waited {
			t.Errorf("request due at %s: latency %s, but it waited %s behind the stall", r.due, r.latency(), waited)
		}
		if r.sent < stalled.end {
			t.Errorf("request due at %s sent at %s, before the stalled request ended at %s", r.due, r.sent, stalled.end)
		}
	}
	// The request due right after the stall began waited most of it.
	if got := reqs[11].latency(); got < stall-5*time.Millisecond {
		t.Errorf("request queued behind the stall has latency %s, want about %s", got, stall)
	}
}
