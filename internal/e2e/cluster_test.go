package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"parapsp/internal/baseline"
	"parapsp/internal/gen"
	"parapsp/internal/matrix"
)

// daemon is one long-running binary under test: process handle, the
// address it announced, and its collected output.
type daemon struct {
	cmd  *exec.Cmd
	addr string

	mu   sync.Mutex
	tail bytes.Buffer
	eof  chan struct{}
}

// startDaemon launches a binary and waits for its "<prefix>listening on "
// announcement, then keeps collecting output in the background.
func startDaemon(t *testing.T, bin, announce string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(bin, args...), eof: make(chan struct{})}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	d.cmd.Stderr = d.cmd.Stdout
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill(); d.cmd.Wait() })

	sc := bufio.NewScanner(stdout)
	deadlineTimer := time.AfterFunc(60*time.Second, func() { d.cmd.Process.Kill() })
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.tail.WriteString(line + "\n")
		d.mu.Unlock()
		if rest, ok := strings.CutPrefix(line, announce); ok {
			d.addr = strings.TrimSpace(rest)
			break
		}
	}
	deadlineTimer.Stop()
	if d.addr == "" {
		t.Fatalf("%s never announced %q:\n%s", d.cmd.Args, announce, d.output())
	}
	go func() {
		defer close(d.eof)
		for sc.Scan() {
			d.mu.Lock()
			d.tail.WriteString(sc.Text() + "\n")
			d.mu.Unlock()
		}
	}()
	return d
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tail.String()
}

// drain sends SIGTERM and asserts a zero exit with the binary's
// drained-cleanly line in the output.
func (d *daemon) drain(t *testing.T, cleanLine string) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.eof:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: timed out collecting output after SIGTERM", d.cmd.Args[0])
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("%s exited non-zero after SIGTERM: %v\n%s", d.cmd.Args[0], err, d.output())
	}
	wantLines(t, d.output(), cleanLine)
}

// TestClusterChaos is the acceptance test of the sharded deployment: a
// router over three real parapspd shards (separate processes, real HTTP)
// runs a mixed workload checked against the Floyd–Warshall oracle while
// one shard is SIGKILLed mid-flight. Every completed query must be
// exactly right — failover may change latency, never answers — with 503
// the only tolerated failure, and the router's attempt ledger must
// reconcile: routed == merged + hedge_cancelled + failed.
func TestClusterChaos(t *testing.T) {
	const (
		n    = 96
		seed = 7
	)
	// Independent oracle for the exact graph `parapspd -gen 96 -seed 7`
	// serves (Barabási–Albert, m=4, unweighted).
	g, err := gen.BarabasiAlbert(n, 4, seed, gen.Weighting{})
	if err != nil {
		t.Fatal(err)
	}
	truth := baseline.FloydWarshall(g)
	wantDist := func(u, v int) int64 {
		if d := truth.At(u, v); d != matrix.Inf {
			return int64(d)
		}
		return -1
	}

	shardBin := build(t, "parapspd")
	routerBin := build(t, "parapsprouter")

	var shards []*daemon
	var shardList []string
	for i := 0; i < 3; i++ {
		d := startDaemon(t, shardBin, "parapspd: listening on ",
			"-gen", fmt.Sprint(n), "-seed", fmt.Sprint(seed),
			"-addr", "127.0.0.1:0", "-shard-id", fmt.Sprintf("s%d", i),
			"-landmarks", "-1", "-workers", "2", "-cache-bytes", fmt.Sprint(4*n*n))
		shards = append(shards, d)
		shardList = append(shardList, fmt.Sprintf("s%d=%s", i, d.addr))
	}
	router := startDaemon(t, routerBin, "parapsprouter: listening on ",
		"-shards", strings.Join(shardList, ","),
		"-addr", "127.0.0.1:0", "-probe-interval", "25ms", "-hedge-after", "25ms")
	base := "http://" + router.addr
	client := &http.Client{Timeout: 15 * time.Second}

	// Wait until the prober has admitted all three shards and adopted the
	// graph order, so the chaos phase starts from a fully healthy ring.
	waitDeadline := time.Now().Add(30 * time.Second)
	for {
		var health struct {
			Healthy  int   `json:"healthy"`
			Vertices int64 `json:"vertices"`
		}
		if resp, err := client.Get(base + "/healthz"); err == nil {
			err = json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
			if err == nil && health.Healthy == 3 && health.Vertices == n {
				break
			}
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("router never saw 3 healthy shards:\n%s", router.output())
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Mixed workload: concurrent /dist, /batch and /path clients, every
	// completed answer checked against the oracle; kill() fires
	// mid-workload.
	const (
		workers      = 4
		opsPerWorker = 120
		killAfterOps = 60 // per worker, ~halfway
	)
	var (
		oks, refused atomic.Int64
		killOnce     sync.Once
		wg           sync.WaitGroup
	)
	kill := func() {
		killOnce.Do(func() {
			t.Log("SIGKILLing shard s1 mid-workload")
			if err := shards[1].cmd.Process.Kill(); err != nil {
				t.Errorf("kill shard: %v", err)
			}
		})
	}
	checkAnswer := func(what string, u, v int32, dist int64, exact bool) bool {
		if !exact {
			t.Errorf("%s u=%d v=%d returned an inexact answer with the oracle disabled", what, u, v)
			return false
		}
		if want := wantDist(int(u), int(v)); dist != want {
			t.Errorf("%s u=%d v=%d answered %d, oracle says %d", what, u, v, dist, want)
			return false
		}
		return true
	}
	type answer struct {
		U     int32 `json:"u"`
		V     int32 `json:"v"`
		Dist  int64 `json:"dist"`
		Exact bool  `json:"exact"`
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for op := 0; op < opsPerWorker; op++ {
				if w == 0 && op == killAfterOps {
					kill()
				}
				u, v := rng.Intn(n), rng.Intn(n)
				var (
					resp *http.Response
					err  error
					kind = op % 3
				)
				switch kind {
				case 0:
					resp, err = client.Get(fmt.Sprintf("%s/dist?u=%d&v=%d", base, u, v))
				case 1:
					resp, err = client.Get(fmt.Sprintf("%s/path?u=%d&v=%d", base, u, v))
				default:
					var qs []string
					for i := 0; i < 8; i++ {
						qs = append(qs, fmt.Sprintf(`{"u":%d,"v":%d}`, rng.Intn(n), rng.Intn(n)))
					}
					resp, err = client.Post(base+"/batch", "application/json",
						strings.NewReader(`{"queries":[`+strings.Join(qs, ",")+`]}`))
				}
				if err != nil {
					t.Errorf("worker %d op %d: %v", w, op, err)
					return
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					t.Errorf("worker %d op %d: read: %v", w, op, rerr)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					switch kind {
					case 0, 1:
						var a answer
						if err := json.Unmarshal(body, &a); err != nil {
							t.Errorf("worker %d op %d: decode: %v", w, op, err)
							return
						}
						if checkAnswer("query", a.U, a.V, a.Dist, a.Exact) {
							oks.Add(1)
						}
					default:
						var b struct {
							Answers []answer `json:"answers"`
						}
						if err := json.Unmarshal(body, &b); err != nil || len(b.Answers) != 8 {
							t.Errorf("worker %d op %d: batch decode (%v): %s", w, op, err, body)
							return
						}
						good := true
						for _, a := range b.Answers {
							good = checkAnswer("batch", a.U, a.V, a.Dist, a.Exact) && good
						}
						if good {
							oks.Add(1)
						}
					}
				case http.StatusServiceUnavailable:
					// The only honest failure: no owning shard reachable.
					refused.Add(1)
				default:
					t.Errorf("worker %d op %d: status %d (only 200 or 503 are acceptable): %s",
						w, op, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	kill() // even if worker 0 errored out early, the chaos must happen
	if completed := oks.Load(); completed == 0 {
		t.Fatal("no query completed successfully")
	}
	t.Logf("workload done: %d exact answers, %d honest 503s", oks.Load(), refused.Load())

	// The dead shard must be out of the ring...
	evictDeadline := time.Now().Add(10 * time.Second)
	for {
		var health struct {
			Healthy int `json:"healthy"`
		}
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
			if err == nil && health.Healthy == 2 {
				break
			}
		}
		if time.Now().After(evictDeadline) {
			t.Fatalf("router never evicted the killed shard:\n%s", router.output())
		}
		time.Sleep(25 * time.Millisecond)
	}
	// ...and queries against the degraded cluster still answer exactly.
	for i := 0; i < 25; i++ {
		u, v := (i*13)%n, (i*29)%n
		resp, err := client.Get(fmt.Sprintf("%s/dist?u=%d&v=%d", base, u, v))
		if err != nil {
			t.Fatalf("degraded query: %v", err)
		}
		var a answer
		err = json.NewDecoder(resp.Body).Decode(&a)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded query %d,%d: status %d err %v", u, v, resp.StatusCode, err)
		}
		checkAnswer("degraded", a.U, a.V, a.Dist, a.Exact)
	}

	// Reconciliation: every routed subrequest attempt is accounted in
	// exactly one terminal bucket, SIGKILL chaos included.
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int64
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m["cluster.routed"] != m["cluster.merged"]+m["cluster.hedge_cancelled"]+m["cluster.failed"] {
		t.Fatalf("attempt ledger does not balance: routed=%d merged=%d hedge_cancelled=%d failed=%d",
			m["cluster.routed"], m["cluster.merged"], m["cluster.hedge_cancelled"], m["cluster.failed"])
	}
	if m["cluster.shard_down"] == 0 {
		t.Fatal("SIGKILL left no shard_down transition in the metrics")
	}
	// The admission ledger survives the same chaos: per tier and total,
	// requests == admitted + rejections, admitted == completed + expired.
	for _, p := range []string{"admit", "admit.besteffort", "admit.premium"} {
		req := m[p+".requests"]
		adm := m[p+".admitted"]
		rej := m[p+".rejected_quota"] + m[p+".rejected_inflight"] + m[p+".rejected_draining"]
		if req != adm+rej {
			t.Fatalf("%s ledger: requests=%d != admitted=%d + rejected=%d", p, req, adm, rej)
		}
		if done := m[p+".completed"] + m[p+".deadline_expired"]; adm != done {
			t.Fatalf("%s ledger: admitted=%d != completed+expired=%d", p, adm, done)
		}
	}

	// Graceful teardown: router and the surviving shards drain cleanly.
	router.drain(t, "parapsprouter: drained cleanly (requests=")
	shards[0].drain(t, "parapspd: drained cleanly (requests=")
	shards[2].drain(t, "parapspd: drained cleanly (requests=")
}
