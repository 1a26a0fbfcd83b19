package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"parapsp/internal/baseline"
)

// TestShutdownDrainsInFlight is the drain-semantics acceptance test: a
// server under concurrent load is shut down while requests are in flight,
// and every request that was admitted must still receive a complete,
// correct response ("no dropped responses"). Afterwards the goroutine
// count must return to its pre-server baseline ("no goroutine leaks").
func TestShutdownDrainsInFlight(t *testing.T) {
	baselineGoroutines := runtime.NumGoroutine()

	g := testGraph(t, 400, 17)
	truth := baseline.FloydWarshall(g)
	s, err := New(g, Config{
		Workers:        1,
		CacheBytes:     rowsBudget(g, 512), // no eviction noise; every query is a cold solve
		Landmarks:      -1,
		MaxInflight:    64,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	base := "http://" + l.Addr().String()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	const clients = 12
	type result struct {
		u, v   int32
		status int
		dist   int64
		err    error
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u, v := int32(i*7+1), int32(i*11+3) // distinct cold sources
			r := result{u: u, v: v}
			resp, err := client.Get(fmt.Sprintf("%s/dist?u=%d&v=%d", base, u, v))
			if err != nil {
				r.err = err
			} else {
				r.status = resp.StatusCode
				var ans Answer
				err := json.NewDecoder(resp.Body).Decode(&ans)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					r.err = fmt.Errorf("truncated response: %w", err)
				}
				r.dist = ans.Dist
			}
			results[i] = r
		}(i)
	}

	// Initiate shutdown as soon as the server has admitted every request,
	// so the drain genuinely overlaps in-flight work.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Snapshot()["admit.admitted"] < clients {
		if time.Now().After(deadline) {
			t.Fatal("requests were not admitted in time")
		}
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()

	// Every admitted request must have completed with a correct answer.
	for _, r := range results {
		if r.err != nil {
			t.Fatalf("request (%d,%d) dropped during drain: %v", r.u, r.v, r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("request (%d,%d) got status %d during drain", r.u, r.v, r.status)
		}
		if want := distToJSON(truth.At(int(r.u), int(r.v))); r.dist != want {
			t.Fatalf("request (%d,%d) = %d, want %d", r.u, r.v, r.dist, want)
		}
	}

	// The listener is closed: new connections must be refused.
	if _, err := client.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}

	// No goroutine leaks: everything the server started has exited. Allow
	// a short settling window for netpoll/runtime goroutines to unwind.
	leakDeadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baselineGoroutines+2 {
			break
		} else if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d now vs %d at baseline\n%s",
				n, baselineGoroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
