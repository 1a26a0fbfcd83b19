// Package dist prototypes the paper's stated future work — "extend the
// ParAPSP algorithm on distributed-memory parallel environments" — as a
// message-passing simulation runnable on one machine.
//
// The cluster model: P nodes, each with private memory, connected by
// reliable ordered links (Go channels standing in for MPI point-to-point).
// Sources are dealt to nodes round-robin in MultiLists degree-descending
// order, so every node works on its highest-degree sources first, the
// property ParAPSP's dynamic-cyclic schedule preserves on shared memory.
// Each node runs the modified Dijkstra over its own sources; when a row
// completes, the node broadcasts it, and every node folds received remote
// rows into its later searches exactly like locally completed ones.
//
// Because a search may only use rows that are *locally available* — its
// node's own completed rows plus those already received — the result is
// still the exact APSP solution (row reuse is an optimization, never a
// correctness requirement), but the reuse rate, and hence the work, now
// depends on communication. The Stats the simulation reports (messages,
// bytes, fold hits) are the quantities a real MPI port would pay for; the
// "distmem" experiment sweeps node counts to expose the compute/
// communication trade-off the future-work section gestures at.
package dist

import (
	"fmt"
	"sync"
	"sync/atomic"

	"parapsp/internal/graph"
	"parapsp/internal/kernel"
	"parapsp/internal/matrix"
	"parapsp/internal/order"
)

// Config sizes the simulated cluster.
type Config struct {
	// Nodes is the number of distributed-memory nodes (>= 1).
	Nodes int
	// DisableBroadcast turns off row exchange entirely: nodes reuse only
	// their own completed rows. Ablation for the communication benefit.
	DisableBroadcast bool
	// InboxDepth is the per-node channel buffer (default: number of
	// vertices, so broadcasts never block in the simulation).
	InboxDepth int
}

// Stats reports the communication a real distributed run would incur.
type Stats struct {
	// Messages is the number of point-to-point row transfers.
	Messages int64
	// Bytes is the payload volume of those transfers (4 bytes per entry).
	Bytes uint64
	// RemoteFolds counts row-combine hits on *received* rows; LocalFolds
	// on rows the node completed itself. Their ratio shows how much of
	// the dynamic-programming benefit communication buys.
	RemoteFolds, LocalFolds int64
}

// rowMsg is one broadcast row. The simulation passes a slice header
// (zero-copy "network"); contents are immutable after broadcast, so
// receivers may alias it safely. Bytes are accounted as a real transfer.
type rowMsg struct {
	src int32
	row []matrix.Dist
}

// Solve runs the simulated distributed ParAPSP and returns the exact
// distance matrix plus communication statistics.
func Solve(g *graph.Graph, cfg Config) (*matrix.Matrix, Stats, error) {
	if cfg.Nodes < 1 {
		return nil, Stats{}, fmt.Errorf("dist: need at least 1 node, got %d", cfg.Nodes)
	}
	n := g.N()
	P := cfg.Nodes
	if P > n && n > 0 {
		P = n
	}
	if P < 1 {
		P = 1
	}
	depth := cfg.InboxDepth
	if depth <= 0 {
		depth = n + 1
	}

	// Global result matrix. Each row is written by exactly one node (the
	// owner of its source), so the gather step is free in the simulation;
	// a real port would leave rows distributed. It is allocated zeroed:
	// each node initializes the rows it solves.
	D := matrix.NewZero(n)

	src := order.MultiLists(g.Degrees(), P, 0.1)

	// ownedBy[i] = node owning the i-th source in the global order.
	inboxes := make([]chan rowMsg, P)
	for i := range inboxes {
		inboxes[i] = make(chan rowMsg, depth)
	}

	var stats Stats
	var wgCompute, wgRecv sync.WaitGroup

	type node struct {
		id    int
		avail []atomic.Pointer[[]matrix.Dist] // locally visible completed rows
	}
	nodes := make([]*node, P)
	for i := range nodes {
		nodes[i] = &node{id: i, avail: make([]atomic.Pointer[[]matrix.Dist], n)}
	}

	// Receivers: drain the inbox, publishing rows into local memory.
	for _, nd := range nodes {
		wgRecv.Add(1)
		go func(nd *node) {
			defer wgRecv.Done()
			for msg := range inboxes[nd.id] {
				row := msg.row
				nd.avail[msg.src].Store(&row)
			}
		}(nd)
	}

	// Compute: each node processes its round-robin share of the ordered
	// sources with the modified Dijkstra restricted to local visibility.
	for _, nd := range nodes {
		wgCompute.Add(1)
		go func(nd *node) {
			defer wgCompute.Done()
			inQueue := make([]bool, n)
			queue := make([]int32, 0, 64)
			owned := make([]bool, n)
			for i := nd.id; i < n; i += P {
				owned[src[i]] = true
			}
			for i := nd.id; i < n; i += P {
				s := src[i]
				row := D.Row(int(s))
				matrix.FillDist(row, matrix.Inf)
				queue = localDijkstra(g, s, row, nd.avail, owned, inQueue, queue[:0], &stats)
				// Publish locally, then broadcast.
				r := row
				nd.avail[s].Store(&r)
				if !cfg.DisableBroadcast {
					for _, other := range nodes {
						if other.id == nd.id {
							continue
						}
						inboxes[other.id] <- rowMsg{src: s, row: row}
						atomic.AddInt64(&stats.Messages, 1)
						atomic.AddUint64(&stats.Bytes, uint64(n)*4)
					}
				}
			}
		}(nd)
	}

	wgCompute.Wait()
	for _, ch := range inboxes {
		close(ch)
	}
	wgRecv.Wait()
	return D, stats, nil
}

// localDijkstra is the modified Dijkstra with visibility restricted to the
// rows published in avail. row must be all Inf; the search sets its
// diagonal. It returns the (reset) queue for reuse.
func localDijkstra(g *graph.Graph, s int32, row []matrix.Dist, avail []atomic.Pointer[[]matrix.Dist], owned, inQueue []bool, q []int32, stats *Stats) []int32 {
	row[s] = 0
	q = append(q, s)
	inQueue[s] = true
	head := 0
	for head < len(q) {
		t := q[head]
		head++
		if head > 1024 && head*2 >= len(q) {
			q = q[:copy(q, q[head:])]
			head = 0
		}
		inQueue[t] = false
		dt := row[t]

		if t != s {
			if rp := avail[t].Load(); rp != nil {
				// Fold in the complete row of t via the blocked kernel.
				// &row[0] == &rt[0] can not happen: a node never revisits
				// its own source.
				kernel.FoldRow(row, *rp, dt)
				if owned[t] {
					atomic.AddInt64(&stats.LocalFolds, 1)
				} else {
					atomic.AddInt64(&stats.RemoteFolds, 1)
				}
				continue
			}
		}

		adj, w := g.NeighborsW(t)
		for i, v := range adj {
			wt := matrix.Dist(1)
			if w != nil {
				wt = w[i]
			}
			if nd := matrix.AddSat(dt, wt); nd < row[v] {
				row[v] = nd
				if !inQueue[v] {
					inQueue[v] = true
					q = append(q, v)
				}
			}
		}
	}
	return q[:0]
}
