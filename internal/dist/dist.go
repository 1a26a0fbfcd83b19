// Package dist prototypes the paper's stated future work — "extend the
// ParAPSP algorithm on distributed-memory parallel environments" — as a
// message-passing simulation runnable on one machine.
//
// The cluster model: P nodes, each with private memory, connected by
// reliable ordered links (Go channels standing in for MPI point-to-point).
// Sources are dealt to nodes round-robin in MultiLists degree-descending
// order, so every node works on its highest-degree sources first, the
// property ParAPSP's dynamic-cyclic schedule preserves on shared memory.
// Each node runs the modified Dijkstra (core.Search) over its own
// sources; when a row completes, the node broadcasts it, and every node
// folds received remote rows into its later searches exactly like locally
// completed ones.
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

	"parapsp/internal/core"
	"parapsp/internal/graph"
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

	// Global result matrix. Each row is written by exactly one node (the
	// owner of its source), so the gather step is free in the simulation;
	// a real port would leave rows distributed. It is allocated zeroed:
	// each node's search initializes the rows it solves.
	D := matrix.NewZero(n)

	src := order.MultiLists(g.Degrees(), P, 0.1)

	// A broadcast sends only the source id: the row already sits in D,
	// and the channel receive orders its writes before the receiver
	// publishes it. Bytes are accounted as a real transfer. An inbox holds
	// n+1 ids, more than a node is ever sent, so a broadcast never blocks.
	inboxes := make([]chan int32, P)
	for i := range inboxes {
		inboxes[i] = make(chan int32, n+1)
	}

	var stats Stats
	var wgCompute, wgRecv sync.WaitGroup
	for id := 0; id < P; id++ {
		owned := make([]bool, n)
		for i := id; i < n; i += P {
			owned[src[i]] = true
		}
		// The fold hook runs on the node's compute goroutine only.
		var local, remote int64
		search := core.NewSearch(g, D, core.Options{}, func(t int32) {
			if owned[t] {
				local++
			} else {
				remote++
			}
		})

		// Receiver: publish each received row to the node's search.
		wgRecv.Add(1)
		go func() {
			defer wgRecv.Done()
			for t := range inboxes[id] {
				search.Publish(t)
			}
		}()

		// Compute: the node's round-robin share of the ordered sources,
		// each search folding only the rows the node can see.
		wgCompute.Add(1)
		go func() {
			defer wgCompute.Done()
			for i := id; i < n; i += P {
				s := src[i]
				search.Run(s)
				if !cfg.DisableBroadcast {
					for other, inbox := range inboxes {
						if other == id {
							continue
						}
						inbox <- s
						atomic.AddInt64(&stats.Messages, 1)
						atomic.AddUint64(&stats.Bytes, uint64(n)*4)
					}
				}
			}
			atomic.AddInt64(&stats.LocalFolds, local)
			atomic.AddInt64(&stats.RemoteFolds, remote)
		}()
	}

	wgCompute.Wait()
	for _, ch := range inboxes {
		close(ch)
	}
	wgRecv.Wait()
	return D, stats, nil
}
