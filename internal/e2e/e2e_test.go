// Package e2e smoke-tests the command-line binaries end to end: each one
// is built with the real toolchain, run against a tiny generated graph,
// and checked for exit code and the key lines of its output. These tests
// catch flag-wiring and main-package regressions that unit tests of the
// internal packages cannot see.
package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	buildMu   sync.Mutex
	buildDir  string
	buildDone = map[string]string{}
)

// build compiles ./cmd/<name> once per test run and returns the binary path.
func build(t *testing.T, name string) string {
	t.Helper()
	buildMu.Lock()
	defer buildMu.Unlock()
	if p, ok := buildDone[name]; ok {
		return p
	}
	if buildDir == "" {
		dir, err := os.MkdirTemp("", "parapsp-e2e-")
		if err != nil {
			t.Fatal(err)
		}
		buildDir = dir
	}
	bin := filepath.Join(buildDir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	buildDone[name] = bin
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// run executes a built binary and returns combined output, failing the
// test unless it exits with the expected code.
func run(t *testing.T, wantExit int, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
		}
		code = ee.ExitCode()
	}
	if code != wantExit {
		t.Fatalf("%s %v exited %d, want %d\n%s", filepath.Base(bin), args, code, wantExit, out)
	}
	return string(out)
}

func wantLines(t *testing.T, out string, needles ...string) {
	t.Helper()
	for _, needle := range needles {
		if !strings.Contains(out, needle) {
			t.Fatalf("output missing %q:\n%s", needle, out)
		}
	}
}

// tinyGraph generates a small Barabasi-Albert edge list with graphgen and
// returns its path — the shared fixture for the downstream binaries.
func tinyGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ba.txt")
	out := run(t, 0, build(t, "graphgen"),
		"-model", "ba", "-n", "60", "-m", "2", "-seed", "7", "-out", path)
	wantLines(t, out, "wrote", path)
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("graphgen produced no output file: %v", err)
	}
	return path
}

func TestGraphgenRejectsMissingFlags(t *testing.T) {
	run(t, 2, build(t, "graphgen")) // no -model/-out: usage + exit 2
}

func TestGraphinfoSmoke(t *testing.T) {
	g := tinyGraph(t)
	out := run(t, 0, build(t, "graphinfo"), "-in", g, "-undirected")
	wantLines(t, out,
		"loaded",
		"degrees: min=",
		"weak components:",
		"clustering coefficient:",
		"diameter bounds (double sweep):",
		"top 5 by PageRank:",
	)
}

func TestApspSmoke(t *testing.T) {
	g := tinyGraph(t)
	bin := build(t, "apsp")
	out := run(t, 0, bin,
		"-in", g, "-undirected", "-workers", "2", "-path", "0,9")
	wantLines(t, out,
		"loaded",
		"APSP (ParAPSP, kernel dijkstra, 2 workers):",
		"diameter:",
		"radius:",
		"average path length:",
		"closeness centrality:",
	)
	// A 60-vertex BA graph is connected, so the path query must resolve.
	wantLines(t, out, "shortest path 0 -> 9")

	// A pinned kernel is reported back and computes the same diameter.
	out = run(t, 0, bin, "-in", g, "-undirected", "-workers", "2", "-kernel", "deltastar")
	wantLines(t, out, "kernel deltastar", "diameter: 5")

	// The exporters: -trace writes a Chrome trace file and -metrics prints
	// the counter snapshot on stdout, both valid JSON.
	trace := filepath.Join(t.TempDir(), "trace.json")
	stdout, err := exec.Command(bin, "-in", g, "-undirected", "-workers", "2",
		"-trace", trace, "-metrics").Output()
	if err != nil {
		t.Fatalf("apsp -trace -metrics: %v", err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var events struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &events); err != nil || len(events.TraceEvents) == 0 {
		t.Fatalf("trace file: %d events, err %v:\n%s", len(events.TraceEvents), err, data)
	}
	start := bytes.Index(stdout, []byte("\n{"))
	if start < 0 {
		t.Fatalf("no JSON object on stdout:\n%s", stdout)
	}
	var metrics map[string]int64
	if err := json.NewDecoder(bytes.NewReader(stdout[start:])).Decode(&metrics); err != nil || len(metrics) == 0 {
		t.Fatalf("metrics JSON: %d counters, err %v:\n%s", len(metrics), err, stdout)
	}
}

// TestApspbenchSmoke: the CLI lists exactly the paper registry that
// EXPERIMENTS.md records and runs one experiment from it.
func TestApspbenchSmoke(t *testing.T) {
	bin := build(t, "apspbench")
	lines := strings.Split(strings.TrimSpace(run(t, 0, bin, "-list")), "\n")
	if len(lines) != 24 || !strings.HasPrefix(lines[0], "table2 ") || !strings.HasPrefix(lines[23], "ablation-reuse ") {
		t.Fatalf("-list: want the 24 experiments table2 .. ablation-reuse, got %d:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	out := run(t, 0, bin, "-exp", "exactness", "-scale", "0.02", "-threads", "2", "-runs", "1")
	wantLines(t, out, "exactness")
}

// TestParapspdSmoke boots the query daemon on a synthetic graph, issues a
// real HTTP query, then sends SIGTERM and asserts a clean drain.
func TestParapspdSmoke(t *testing.T) {
	cmd := exec.Command(build(t, "parapspd"),
		"-gen", "64", "-seed", "7", "-addr", "127.0.0.1:0", "-cache-bytes", fmt.Sprint(16*64*4))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon prints its bound address once the listener is up; collect
	// the rest of the output for the drain assertions.
	sc := bufio.NewScanner(stdout)
	var addr string
	var tail bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		tail.WriteString(line + "\n")
		if rest, ok := strings.CutPrefix(line, "parapspd: listening on "); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon never announced its address:\n%s", tail.String())
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			tail.WriteString(sc.Text() + "\n")
		}
	}()

	resp, err := http.Get(fmt.Sprintf("http://%s/dist?u=3&v=17", addr))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	var ans struct {
		U    int32 `json:"u"`
		V    int32 `json:"v"`
		Dist int64 `json:"dist"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/dist status %d", resp.StatusCode)
	}
	if ans.U != 3 || ans.V != 17 || ans.Dist < 1 {
		t.Fatalf("/dist answer %+v (a 64-vertex BA graph is connected)", ans)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Drain the output reader to EOF before Wait: Wait closes the stdout
	// pipe, which would race the scanner out of the final drain lines.
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out collecting daemon output")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited non-zero after SIGTERM: %v\n%s", err, tail.String())
	}
	wantLines(t, tail.String(), "parapspd: draining", "parapspd: drained cleanly (requests=")
}

// TestParapspdDenseIDs boots the daemon on a hand-written edge list whose
// labels are not 0..n-1: it must name the label-to-id mapping at start-up
// and answer queries by dense id (first-seen order), not by file label.
func TestParapspdDenseIDs(t *testing.T) {
	// First-seen order: label 10 is id 0, 20 is 1, 30 is 2, 40 is 3.
	path := filepath.Join(t.TempDir(), "relabelled.txt")
	if err := os.WriteFile(path, []byte("10 20\n20 30\n30 40\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, build(t, "parapspd"), "parapspd: listening on ",
		"-graph", path, "-undirected", "-addr", "127.0.0.1:0", "-landmarks", "-1")
	wantLines(t, d.output(), "parapspd: queries take dense ids 0..3 in first-seen order, not file labels: file label 10 is id 0")

	resp, err := http.Get(fmt.Sprintf("http://%s/dist?u=0&v=3", d.addr))
	if err != nil {
		t.Fatal(err)
	}
	var ans struct {
		Dist int64 `json:"dist"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ans)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || ans.Dist != 3 {
		t.Fatalf("/dist?u=0&v=3 (labels 10 and 40): status %d, %+v, %v; want dist 3", resp.StatusCode, ans, err)
	}
	// Label 40 is not an id of this 4-vertex graph.
	resp, err = http.Get(fmt.Sprintf("http://%s/dist?u=0&v=40", d.addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/dist?u=0&v=40: status %d, want 400", resp.StatusCode)
	}
	d.drain(t, "parapspd: drained cleanly (requests=")
}
