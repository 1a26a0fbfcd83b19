package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"parapsp/internal/gen"
	"parapsp/internal/graph"
)

// batteryKernels is the explicit list of kernels the differential battery
// exercises. TestKernelRegistryCovered pins it against the live registry,
// so registering a new kernel without adding it here (and thereby to the
// battery) fails CI.
var batteryKernels = []string{
	KernelDeltaStar,
	KernelDijkstra,
	KernelHeap,
	KernelMSBFS,
	KernelSweep,
}

// TestKernelRegistryCovered is the registry-completeness check: every
// registered kernel must appear in the differential battery.
func TestKernelRegistryCovered(t *testing.T) {
	reg := Kernels()
	if len(reg) != len(batteryKernels) {
		t.Fatalf("registry has kernels %v, battery covers %v — add new kernels to batteryKernels", reg, batteryKernels)
	}
	for i, name := range reg {
		if batteryKernels[i] != name {
			t.Fatalf("registry has kernels %v, battery covers %v", reg, batteryKernels)
		}
	}
}

// TestKernelsMatchDijkstra is the differential battery of the kernel
// registry: every registered kernel must produce checksum-identical
// distance matrices to the default modified Dijkstra on the power-law /
// grid / disconnected graphs, directed and undirected, weighted and
// unweighted, at 1, 2 and 8 workers. Kernels that reject a combination via
// Supports (the single-weighting lane kernels) are skipped there — the
// completeness test above ensures every kernel still runs somewhere.
func TestKernelsMatchDijkstra(t *testing.T) {
	for _, family := range batteryFamilies {
		for _, directed := range []bool{false, true} {
			for _, weighted := range []bool{false, true} {
				g := batteryGraph(t, family, directed, weighted, 7)
				base, err := Solve(g, ParAPSP, Options{Workers: 2, Kernel: KernelDijkstra})
				if err != nil {
					t.Fatalf("%s baseline: %v", family, err)
				}
				want := base.D.Checksum()
				if base.Kernel != KernelDijkstra {
					t.Fatalf("baseline ran kernel %q, want %q", base.Kernel, KernelDijkstra)
				}
				for _, name := range batteryKernels {
					kern, err := LookupKernel(name)
					if err != nil {
						t.Fatal(err)
					}
					if kern.Supports(g, Options{}) != nil {
						continue // e.g. msbfs on a weighted graph
					}
					for _, workers := range []int{1, 2, 8} {
						res, err := Solve(g, ParAPSP, Options{Workers: workers, Kernel: name})
						if err != nil {
							t.Fatalf("%s/%s/w=%d: %v", family, name, workers, err)
						}
						if res.Kernel != name {
							t.Fatalf("%s/%s/w=%d: ran kernel %q", family, name, workers, res.Kernel)
						}
						if got := res.D.Checksum(); got != want {
							t.Errorf("%s directed=%v weighted=%v kernel=%s workers=%d: checksum %x, dijkstra %x",
								family, directed, weighted, name, workers, got, want)
						}
						if !res.D.Equal(base.D) {
							t.Fatalf("%s/%s/w=%d: distance matrices differ", family, name, workers)
						}
					}
				}
			}
		}
	}
}

// TestKernelSubsetMatchesSolve runs every kernel through SolveSubset and
// checks the subset rows against the full solve, covering the second
// destination type (the subset row block).
func TestKernelSubsetMatchesSolve(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := batteryGraph(t, "power-law", false, weighted, 11)
		full, err := Solve(g, ParAPSP, Options{Workers: 2, Kernel: KernelDijkstra})
		if err != nil {
			t.Fatal(err)
		}
		sources := []int32{0, 3, 17, 42, 191, 250}
		for _, name := range batteryKernels {
			kern, err := LookupKernel(name)
			if err != nil {
				t.Fatal(err)
			}
			if kern.Supports(g, Options{}) != nil {
				continue
			}
			sub, err := SolveSubset(g, sources, Options{Workers: 2, Kernel: name})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if sub.Kernel != name {
				t.Fatalf("subset ran kernel %q, want %q", sub.Kernel, name)
			}
			for _, s := range sources {
				row := sub.Row(s)
				for v := 0; v < g.N(); v++ {
					if row[v] != full.D.At(int(s), v) {
						t.Fatalf("weighted=%v kernel=%s: D[%d][%d] = %d, want %d",
							weighted, name, s, v, row[v], full.D.At(int(s), v))
					}
				}
			}
		}
	}
}

// TestKernelOptionValidation pins the dispatch errors of resolveKernel.
func TestKernelOptionValidation(t *testing.T) {
	g := batteryGraph(t, "grid", false, true, 3)
	cases := []struct {
		name string
		alg  Algorithm
		opts Options
	}{
		{"unknown kernel", ParAPSP, Options{Kernel: "nope"}},
		{"adaptive cannot swap kernels", SeqAdaptive, Options{Kernel: KernelDeltaStar}},
		{"msbfs needs unweighted", ParAPSP, Options{Kernel: KernelMSBFS}},
		{"sweep cannot disable reuse", ParAPSP, Options{Kernel: KernelSweep, DisableRowReuse: true}},
		{"deltastar has no paper queue", ParAPSP, Options{Kernel: KernelDeltaStar, PaperQueue: true}},
	}
	for _, tc := range cases {
		if _, err := Solve(g, tc.alg, tc.opts); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: got %v, want ErrInvalid", tc.name, err)
		}
	}
	// SeqAdaptive naming the kernel it runs is fine.
	if _, err := Solve(g, SeqAdaptive, Options{Kernel: KernelDijkstra}); err != nil {
		t.Errorf("SeqAdaptive + Kernel=dijkstra: %v", err)
	}
	// Deltastar composes with the reuse ablation (it just never folds).
	res, err := Solve(g, ParAPSP, Options{Kernel: KernelDeltaStar, DisableRowReuse: true})
	if err != nil {
		t.Fatalf("deltastar without reuse: %v", err)
	}
	base, err := Solve(g, ParAPSP, Options{Kernel: KernelDijkstra})
	if err != nil {
		t.Fatal(err)
	}
	if res.D.Checksum() != base.D.Checksum() {
		t.Error("deltastar without reuse diverged from baseline")
	}
}

// TestKernelAutoResolves: "auto" always resolves to a concrete registry
// kernel (Result.Kernel and SubsetResult.Kernel never report "auto"), and
// the choice solves exactly. TestKernelDispatchTable pins which kernel.
func TestKernelAutoResolves(t *testing.T) {
	for _, family := range batteryFamilies {
		for _, weighted := range []bool{false, true} {
			g := batteryGraph(t, family, false, weighted, 13)
			base, err := Solve(g, ParAPSP, Options{Workers: 2, Kernel: KernelDijkstra})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Solve(g, ParAPSP, Options{Workers: 2, Kernel: KernelAuto})
			if err != nil {
				t.Fatalf("%s weighted=%v: %v", family, weighted, err)
			}
			if res.Kernel == KernelAuto || res.Kernel == "" {
				t.Fatalf("%s: Result.Kernel = %q, want a resolved registry name", family, res.Kernel)
			}
			if _, err := LookupKernel(res.Kernel); err != nil {
				t.Fatalf("%s: auto resolved to unregistered kernel %q", family, res.Kernel)
			}
			if res.D.Checksum() != base.D.Checksum() {
				t.Errorf("%s weighted=%v: auto (%s) diverged from baseline", family, weighted, res.Kernel)
			}
			sub, err := SolveSubset(g, []int32{1, 2, 3}, Options{Kernel: KernelAuto})
			if err != nil {
				t.Fatal(err)
			}
			if sub.Kernel == KernelAuto || sub.Kernel == "" {
				t.Errorf("%s: subset Kernel = %q, want resolved name", family, sub.Kernel)
			}
		}
	}
}

// dispatchGraph builds one of the dispatch table's n=1024 graphs: a
// heavy-tailed power-law graph or a 32×32 grid, weighted U[1,100] or not.
func dispatchGraph(t testing.TB, family string, weighted bool) *graph.Graph {
	t.Helper()
	var w gen.Weighting
	if weighted {
		w = gen.Weighting{Min: 1, Max: 100}
	}
	var g *graph.Graph
	var err error
	switch family {
	case "power-law":
		g, err = gen.PowerLawConfiguration(1024, 2.5, 2, true, 1, w)
	case "grid":
		g, err = gen.Grid2D(32, 32, true, 1, w)
	default:
		t.Fatalf("unknown family %q", family)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// dispatchSources spreads k distinct sources over [0, n).
func dispatchSources(n, k int) []int32 {
	out := make([]int32, k)
	for i := range out {
		out[i] = int32(i * n / k)
	}
	return out
}

// TestKernelDispatchTable pins every row of resolveKernel's table through
// Solve (k = n) and SolveSubset (k < n), and that "" and "auto" resolve
// identically on each.
func TestKernelDispatchTable(t *testing.T) {
	plw := dispatchGraph(t, "power-law", true)
	gridW := dispatchGraph(t, "grid", true)
	gridU := dispatchGraph(t, "grid", false)
	if s := degreeSkew(plw); s < skewHeavyTail {
		t.Fatalf("power-law skew %.2f, want ≥ %v", s, skewHeavyTail)
	}
	if s := degreeSkew(gridW); s >= skewHeavyTail {
		t.Fatalf("grid skew %.2f, want < %v", s, skewHeavyTail)
	}
	small := batteryGraph(t, "power-law", false, true, 19) // n = 300
	smallU := batteryGraph(t, "power-law", false, false, 19)
	n := plw.N()
	half := n / 2
	cases := []struct {
		name string
		g    *graph.Graph
		alg  Algorithm
		opts Options
		k    int // k == g.N() runs Solve, else SolveSubset
		want string
	}{
		{"explicit kernel", plw, ParAPSP, Options{Kernel: KernelDeltaStar}, 16, KernelDeltaStar},
		{"explicit dijkstra, full solve", plw, ParAPSP, Options{Kernel: KernelDijkstra}, n, KernelDijkstra},
		{"paper queue", plw, ParAPSP, Options{PaperQueue: true}, 16, KernelDijkstra},
		{"reuse disabled", plw, ParAPSP, Options{DisableRowReuse: true}, 16, KernelDijkstra},
		{"sequential preset", plw, SeqOptimized, Options{}, n, KernelDijkstra},
		{"k=1 power-law", plw, ParAPSP, Options{}, 1, KernelDijkstra},
		{"k=1 weighted grid", gridW, ParAPSP, Options{}, 1, KernelDijkstra},
		{"k=1 unweighted grid", gridU, ParAPSP, Options{}, 1, KernelDijkstra},
		{"unweighted k=16", gridU, ParAPSP, Options{}, 16, KernelMSBFS},
		{"unweighted k=n/2-1", gridU, ParAPSP, Options{}, half - 1, KernelMSBFS},
		{"unweighted k=n/2+1", gridU, ParAPSP, Options{}, half + 1, KernelMSBFS},
		{"unweighted full solve", gridU, ParAPSP, Options{}, n, KernelMSBFS},
		{"unweighted below 1024 vertices", smallU, ParAPSP, Options{}, 16, KernelDijkstra},
		{"heavy tail k=16", plw, ParAPSP, Options{}, 16, KernelSweep},
		{"heavy tail k=n/2-1", plw, ParAPSP, Options{}, half - 1, KernelSweep},
		{"heavy tail k=n/2+1", plw, ParAPSP, Options{}, half + 1, KernelDeltaStar},
		{"heavy tail full solve", plw, ParAPSP, Options{}, n, KernelDeltaStar},
		{"heavy tail below 1024 vertices", small, ParAPSP, Options{}, 16, KernelDeltaStar},
		{"mesh k=16", gridW, ParAPSP, Options{}, 16, KernelDijkstra},
		{"mesh k=n/2-1", gridW, ParAPSP, Options{}, half - 1, KernelDijkstra},
		{"mesh k=n/2+1", gridW, ParAPSP, Options{}, half + 1, KernelDijkstra},
		{"mesh full solve", gridW, ParAPSP, Options{}, n, KernelDijkstra},
	}
	for _, tc := range cases {
		spellings := []string{tc.opts.Kernel}
		if tc.opts.Kernel == "" {
			spellings = append(spellings, KernelAuto)
		}
		for _, spelling := range spellings {
			opts := tc.opts
			opts.Kernel = spelling
			opts.Workers = 2
			var got string
			if tc.k == tc.g.N() {
				res, err := Solve(tc.g, tc.alg, opts)
				if err != nil {
					t.Fatalf("%s (Kernel %q): %v", tc.name, spelling, err)
				}
				got = res.Kernel
			} else {
				sub, err := SolveSubset(tc.g, dispatchSources(tc.g.N(), tc.k), opts)
				if err != nil {
					t.Fatalf("%s (Kernel %q): %v", tc.name, spelling, err)
				}
				got = sub.Kernel
			}
			if got != tc.want {
				t.Errorf("%s (Kernel %q): ran %q, want %q", tc.name, spelling, got, tc.want)
			}
		}
	}
}

// TestKernelDispatchReleasesGraph: the dispatch table keeps no per-graph
// state, so a graph it has solved becomes garbage once its caller drops
// it. A mutating server builds a new graph on every edge write.
func TestKernelDispatchReleasesGraph(t *testing.T) {
	for _, spelling := range []string{"", KernelAuto} {
		collected := make(chan struct{})
		func() {
			g := dispatchGraph(t, "power-law", true)
			runtime.SetFinalizer(g, func(*graph.Graph) { close(collected) })
			if _, err := SolveSubset(g, dispatchSources(g.N(), 16), Options{Kernel: spelling}); err != nil {
				t.Fatal(err)
			}
		}()
		released := false
		for i := 0; i < 50 && !released; i++ {
			runtime.GC()
			select {
			case <-collected:
				released = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		if !released {
			t.Errorf("Kernel %q: the solved graph is still reachable after 50 collections", spelling)
		}
	}
}

// FuzzAlgorithmRoundTrip pins that ParseAlgorithm inverts Algorithm.String
// for every registered preset, and that parseable strings round-trip — a
// new preset cannot silently desync the two since both scan one table.
func FuzzAlgorithmRoundTrip(f *testing.F) {
	for _, a := range Algorithms() {
		f.Add(a.String())
	}
	f.Add("not-an-algorithm")
	// Kernel names (notably "auto") are not algorithm names: they must
	// fail ParseAlgorithm rather than alias a preset.
	f.Add("auto")
	f.Fuzz(func(t *testing.T, name string) {
		a, err := ParseAlgorithm(name)
		if err != nil {
			return // unparseable input: nothing to round-trip
		}
		if !a.Valid() {
			t.Fatalf("ParseAlgorithm(%q) = %d, which is not Valid", name, int(a))
		}
		if got := a.String(); got != name {
			t.Fatalf("ParseAlgorithm(%q).String() = %q", name, got)
		}
		back, err := ParseAlgorithm(a.String())
		if err != nil || back != a {
			t.Fatalf("round trip of %q: %v, %v", name, back, err)
		}
	})
}
