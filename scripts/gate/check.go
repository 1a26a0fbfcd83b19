package main

import (
	"fmt"
	"sort"

	"parapsp/internal/core"
)

// The gate's bounds. Each one has held since its check landed; moving one
// is a decision to record, not a tuning knob.
const (
	// regressTol: a kernel's vs_dijkstra may not grow more than 10% over
	// its baseline.
	regressTol = 0.10
	// autoTol: the kernel the default dispatch picks may not measure more
	// than 5% over the best kernel of the same dataset.
	autoTol = 0.05
	// noiseEps absorbs absolute ratio jitter. At n=1100 on an
	// oversubscribed runner, kernels that measure within 5% of each other
	// at full scale spread by up to ~0.45 of the dijkstra row between
	// runs; 0.5 sits above that floor and well below the failures the
	// race exists to catch (a wrong lane pick measures ~4.5x, losing row
	// reuse ~60x).
	noiseEps = 0.5

	// p99Cap: the tiered store's p99 may not exceed twice the all-hot p99.
	p99Cap = 2.0
	// scaleFloor: the tiered store serves at least 10x its RAM budget.
	scaleFloor = 10.0
	// memTol and the additive slacks absorb allocator and runtime noise:
	// the heap reading is post-GC but arena-pool sizing wobbles by a few
	// hundred KiB, and VmRSS includes the Go runtime's own pages.
	memTol  = 0.5
	heapEps = 4 << 20
	rssEps  = 16 << 20
)

// autoRow names the default-dispatch row of the race: "auto" resolves
// exactly as an unset Options.Kernel does.
const autoRow = core.KernelAuto

// exempt rows are raced but never held to a baseline ratio. The heap
// ablation demonstrates a ~60x gap (no row reuse) and wobbles by several
// absolute units run to run; the default row is scored against the live
// best instead.
var exempt = map[string]bool{core.KernelHeap: true, autoRow: true}

// report is one gate measurement.
type report struct {
	Store storeRun
	Race  []dataset
}

// storeRun is what the check reads of the store phase.
type storeRun struct {
	ScaleFactor   float64 // all-hot bytes / tiered RAM budget
	P99Ratio      float64 // tiered p99 / all-hot p99
	ColdRows      int
	TierHeapBytes int64 // post-GC Go heap in use after the tiered run
	VmRSSBytes    int64 // process VmRSS after the tiered run; 0 when unreadable
	ExactChecked  int
	ExactMismatch int
	Metrics       map[string]int64 // the tiered server's metrics snapshot
}

// dataset is one graph's kernel race: a full solve, or a subset solve
// when the name ends in "/subset64".
type dataset struct {
	Name string
	Rows []row
}

// row is one kernel's median-of-rounds solve on one dataset.
type row struct {
	Kernel   string
	Ratio    float64 // elapsed relative to the dijkstra row (vs_dijkstra)
	Checksum uint64
	Resolved string // the kernel the auto row ran; empty on other rows
}

// gateBaseline is scripts/gate_baseline.json: only the numbers the check
// compares against.
type gateBaseline struct {
	// VsDijkstra maps dataset -> gated kernel -> vs_dijkstra.
	VsDijkstra map[string]map[string]float64 `json:"vs_dijkstra"`
	Store      struct {
		TierHeapBytes int64 `json:"tier_heap_bytes"`
		VmRSSBytes    int64 `json:"vm_rss_bytes"`
	} `json:"store"`
}

// check returns one message per failed check. A nil base runs only the
// checks that need no baseline.
func check(rep report, base *gateBaseline) []string {
	return append(checkStore(rep.Store, base), checkRace(rep.Race, base)...)
}

func checkStore(st storeRun, base *gateBaseline) []string {
	var fails []string
	fail := func(ok bool, format string, args ...any) {
		if !ok {
			fails = append(fails, "store: "+fmt.Sprintf(format, args...))
		}
	}
	fail(st.ExactMismatch == 0, "%d of %d spot-checked answers differ from baseline.DijkstraSSSP",
		st.ExactMismatch, st.ExactChecked)
	fail(st.ExactChecked > 0, "no exactness spot checks ran")
	m := st.Metrics
	lookups := m["serve.store.lookups"]
	sum := m["serve.store.sketch_answered"] + m["serve.store.t1_hits"] +
		m["serve.store.t2_promotes"] + m["serve.store.t3_promotes"] + m["serve.store.misses"]
	fail(lookups == sum && lookups > 0, "ledger does not reconcile: lookups=%d, outcomes sum to %d", lookups, sum)
	fail(st.ScaleFactor >= scaleFloor, "scale factor %.1fx is below the %.0fx contract", st.ScaleFactor, scaleFloor)
	fail(st.ColdRows > 0, "cold tier never engaged (cold_rows=0)")
	fail(m["store.decode_errors"] == 0, "%d frame decode errors", m["store.decode_errors"])
	fail(st.P99Ratio > 0 && st.P99Ratio <= p99Cap, "tiered p99 is %.2fx the all-hot p99 (cap %.1fx)", st.P99Ratio, p99Cap)
	if base == nil {
		return fails
	}
	b := base.Store
	heapCap := int64(float64(b.TierHeapBytes)*(1+memTol)) + heapEps
	fail(st.TierHeapBytes <= heapCap, "tiered heap %d bytes exceeds baseline %d (cap %d)",
		st.TierHeapBytes, b.TierHeapBytes, heapCap)
	if st.VmRSSBytes > 0 && b.VmRSSBytes > 0 {
		rssCap := int64(float64(b.VmRSSBytes)*(1+memTol)) + rssEps
		fail(st.VmRSSBytes <= rssCap, "VmRSS %d bytes exceeds baseline %d (cap %d)",
			st.VmRSSBytes, b.VmRSSBytes, rssCap)
	}
	return fails
}

func checkRace(race []dataset, base *gateBaseline) []string {
	var fails []string
	fail := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	fresh := make(map[string]bool, len(race))
	for _, ds := range race {
		fresh[ds.Name] = true
		rows := make(map[string]row, len(ds.Rows))
		best := ""
		for _, r := range ds.Rows {
			rows[r.Kernel] = r
			if r.Checksum != ds.Rows[0].Checksum {
				fail("%s/%s: checksum %016x differs from %s's %016x",
					ds.Name, r.Kernel, r.Checksum, ds.Rows[0].Kernel, ds.Rows[0].Checksum)
			}
			if r.Kernel != autoRow && (best == "" || r.Ratio < rows[best].Ratio) {
				best = r.Kernel
			}
		}

		// The default dispatch tracks the per-dataset winner. It is scored
		// by the row of the kernel it picked: the auto row re-runs that
		// kernel's code, so its own elapsed is only a second noisy draw.
		if auto, ok := rows[autoRow]; !ok {
			fail("%s: no %s row", ds.Name, autoRow)
		} else {
			scored := auto.Ratio
			if r, ok := rows[auto.Resolved]; ok {
				scored = r.Ratio
			}
			if lim := limit(rows[best].Ratio, autoTol); scored > lim {
				fail("%s: %s (-> %s) vs_dijkstra %.3f exceeds best kernel %s %.3f +%.0f%% +%.2f = %.3f",
					ds.Name, autoRow, auto.Resolved, scored, best, rows[best].Ratio, autoTol*100, noiseEps, lim)
			}
		}

		if base == nil {
			continue
		}
		want, ok := base.VsDijkstra[ds.Name]
		if !ok {
			fail("%s: no baseline dataset; re-draw the baseline with -write", ds.Name)
			continue
		}
		for _, r := range ds.Rows {
			if exempt[r.Kernel] {
				continue
			}
			b, ok := want[r.Kernel]
			if !ok {
				fail("%s/%s: no baseline row; re-draw the baseline with -write", ds.Name, r.Kernel)
				continue
			}
			if lim := limit(b, regressTol); r.Ratio > lim {
				fail("%s/%s: vs_dijkstra %.3f exceeds baseline %.3f +%.0f%% +%.2f = %.3f",
					ds.Name, r.Kernel, r.Ratio, b, regressTol*100, noiseEps, lim)
			}
		}
		for _, k := range sortedKeys(want) {
			if _, ok := rows[k]; !ok {
				fail("%s/%s: baseline row was not measured; re-draw the baseline with -write", ds.Name, k)
			}
		}
	}
	if base != nil {
		for _, name := range sortedKeys(base.VsDijkstra) {
			if !fresh[name] {
				fail("%s: baseline dataset was not measured; re-draw the baseline with -write", name)
			}
		}
	}
	return fails
}

// limit is the largest passing ratio against reference ratio x.
func limit(x, tol float64) float64 { return x*(1+tol) + noiseEps }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
