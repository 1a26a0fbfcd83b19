package core

import "parapsp/internal/obs"

// Counters aggregates the work a solve performed, independent of
// wall-clock noise. They are the mechanism-level evidence behind the
// paper's performance claims: the optimized ordering wins because
// high-degree rows complete early and get *folded* into later searches,
// replacing whole subtree expansions (EdgeScans) with single row sweeps.
// The workstats experiment prints them side by side per configuration.
//
// Every kernel and every preset, SeqAdaptive included, collects them;
// fields a mechanism lacks stay zero (FoldBatches outside the batched
// FIFO solver, the Batch* fields outside the lane kernels).
type Counters struct {
	// Pops is the number of queue extractions across all sources,
	// including fold-queue drains.
	Pops int64
	// Folds is the number of completed-row combines (Algorithm 1's
	// lines 6-11 taken).
	Folds int64
	// FoldBatches is the number of back-to-back fold drains: the batched
	// solver defers completed rows discovered during one relaxation and
	// sweeps them consecutively while the destination row is cache-hot,
	// so Folds/FoldBatches is the mean rows folded per drain.
	FoldBatches int64
	// FoldsSkipped counts completed rows that were not swept at all
	// because their fold view showed no finite entry besides the diagonal
	// (the fold is then a provable no-op). FoldEntriesSkipped counts the
	// Inf entries the sparse-aware kernels avoided touching in the rows
	// that were swept, via the finite span or explicit index list.
	FoldsSkipped       int64
	FoldEntriesSkipped int64
	// EdgeScans is the number of arcs examined in the relaxation loop;
	// EdgeUpdates counts the relaxations that improved a distance.
	EdgeScans   int64
	EdgeUpdates int64
	// Enqueues is the number of queue insertions (excluding sources),
	// counting both the vertex FIFO and the pending-fold queue.
	Enqueues int64
	// Batches is the number of multi-source batches the batch engine ran;
	// BatchSources the sources packed into them (so BatchSources/Batches
	// is the mean lane occupancy), BatchSweeps the level-synchronous
	// sweeps summed over batches, and BatchScattered the distance entries
	// written out of lane form (frontier discoveries for MS-BFS, row
	// transposes for the weighted sweep). All zero on the scalar engine.
	Batches        int64
	BatchSources   int64
	BatchSweeps    int64
	BatchScattered int64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Pops += o.Pops
	c.Folds += o.Folds
	c.FoldBatches += o.FoldBatches
	c.FoldsSkipped += o.FoldsSkipped
	c.FoldEntriesSkipped += o.FoldEntriesSkipped
	c.EdgeScans += o.EdgeScans
	c.EdgeUpdates += o.EdgeUpdates
	c.Enqueues += o.Enqueues
	c.Batches += o.Batches
	c.BatchSources += o.BatchSources
	c.BatchSweeps += o.BatchSweeps
	c.BatchScattered += o.BatchScattered
}

// PublishMetrics copies the solve's work counters and phase timings into
// an obs metrics registry under "core.*" names — the point where the
// ad-hoc Counters struct is absorbed into the observability layer (the
// scheduler's "sched.*" names land in the same registry). Counters add
// (so multiple solves against one recorder accumulate); the phase
// timings are per-solve gauges.
func (r *Result) PublishMetrics(m *obs.Metrics) {
	c := r.Stats
	m.Counter("core.pops").Add(c.Pops)
	m.Counter("core.folds").Add(c.Folds)
	m.Counter("core.fold_batches").Add(c.FoldBatches)
	m.Counter("core.folds_skipped").Add(c.FoldsSkipped)
	m.Counter("core.fold_entries_skipped").Add(c.FoldEntriesSkipped)
	m.Counter("core.edge_scans").Add(c.EdgeScans)
	m.Counter("core.edge_updates").Add(c.EdgeUpdates)
	m.Counter("core.enqueues").Add(c.Enqueues)
	m.Counter("core.batch.batches").Add(c.Batches)
	m.Counter("core.batch.sources").Add(c.BatchSources)
	m.Counter("core.batch.sweeps").Add(c.BatchSweeps)
	m.Counter("core.batch.scattered").Add(c.BatchScattered)
	if r.D != nil {
		m.Counter("core.sources").Add(int64(r.D.N()))
	}
	m.Counter("core.ordering_ns").Set(int64(r.OrderingTime))
	m.Counter("core.sssp_ns").Set(int64(r.SSSPTime))
}

// FoldRate returns the fraction of pops that hit a completed row — the
// reuse rate the degree-descending order exists to maximize.
func (c *Counters) FoldRate() float64 {
	if c.Pops == 0 {
		return 0
	}
	return float64(c.Folds) / float64(c.Pops)
}
