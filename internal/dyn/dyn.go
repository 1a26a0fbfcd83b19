// Package dyn makes the repository's graphs dynamic: versioned
// copy-on-write snapshots with zero-downtime serving semantics, plus the
// incremental-repair rules that keep cached distance rows exact across
// edge mutations.
//
// The design splits responsibility three ways:
//
//   - Store owns the version chain. Readers pin the current Snapshot with
//     one atomic pointer load — no lock, no allocation, never blocked by a
//     writer. Writers (serialized internally) derive the next CSR with a
//     copy-on-write splice (graph.WithArc / graph.WithoutArc) and publish
//     it atomically; a pinned older snapshot stays fully usable until its
//     last reader drops it.
//
//   - Change classifies what a mutation can do to shortest-path distances:
//     an inserted or lightened arc can only *improve* them, a deleted or
//     heavier arc can only *worsen* them. That sign drives everything
//     downstream.
//
//   - Classify + RepairImprove implement the row-repair rules. For an
//     exact distance row of the old graph, an improving arc (u,v,w)
//     matters iff row[u] + w < row[v]; such rows are repaired in place by
//     a decrease-only binary-heap Dijkstra seeded at the arc head
//     (repair.go), touching only vertices whose label actually drops. A
//     worsening arc matters iff it was tight (row[u] + oldW == row[v],
//     i.e. it could lie on a recorded shortest path); such rows cannot be
//     repaired monotonically and are declared stale for a full re-solve.
//     Every other row is exact as-is and is merely re-tagged to the new
//     version.
package dyn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/oracle"
)

// Errors surfaced by mutation validation. The HTTP layer maps ErrNoEdge
// and ErrEdgeExists to 409 (the op is well-formed but conflicts with the
// current edge set) and ErrOp to 400.
var (
	ErrOp         = errors.New("dyn: invalid edge op")
	ErrNoEdge     = errors.New("dyn: edge does not exist")
	ErrEdgeExists = errors.New("dyn: edge already exists")
)

// Op is the mutation verb of an EdgeOp.
type Op uint8

const (
	// OpInsert adds an edge that must not already exist.
	OpInsert Op = iota + 1
	// OpDelete removes an edge that must exist.
	OpDelete
	// OpReweight changes the weight of an existing edge.
	OpReweight
)

var opNames = map[Op]string{OpInsert: "insert", OpDelete: "delete", OpReweight: "reweight"}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// ParseOp parses the wire spelling of an Op ("insert", "delete",
// "reweight").
func ParseOp(s string) (Op, error) {
	for o, name := range opNames {
		if s == name {
			return o, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown op %q", ErrOp, s)
}

// EdgeOp is one edge mutation. U/V are the endpoints (an undirected
// graph's edge is mutated in both stored directions); W is the weight for
// OpInsert and OpReweight and ignored for OpDelete.
type EdgeOp struct {
	Op Op
	U  int32
	V  int32
	W  matrix.Dist
}

func (e EdgeOp) String() string {
	if e.Op == OpDelete {
		return fmt.Sprintf("%s(%d,%d)", e.Op, e.U, e.V)
	}
	return fmt.Sprintf("%s(%d,%d,w=%d)", e.Op, e.U, e.V, e.W)
}

// ChangeKind is the monotone direction of a committed mutation's effect
// on shortest-path distances.
type ChangeKind uint8

const (
	// KindNone means distances cannot have changed (reweight to the same
	// weight).
	KindNone ChangeKind = iota
	// KindImprove means distances can only shrink (insert, or reweight
	// down).
	KindImprove
	// KindWorsen means distances can only grow (delete, or reweight up).
	KindWorsen
)

func (k ChangeKind) String() string {
	switch k {
	case KindImprove:
		return "improve"
	case KindWorsen:
		return "worsen"
	default:
		return "none"
	}
}

// Change describes one committed mutation.
type Change struct {
	Op   EdgeOp
	OldW matrix.Dist // weight before the op (0 for an insert)
	Kind ChangeKind
}

// Arc is one directed arc with the weight relevant to a repair decision.
type Arc struct {
	U, V int32
	W    matrix.Dist
}

// Arcs returns the directed arcs a row-repair decision must consider,
// carrying the *new* weight for an improving change and the *old* weight
// for a worsening one (the tightness test asks whether the arc was on a
// shortest path before it got worse). Undirected graphs contribute both
// stored directions; a KindNone change contributes nothing.
func (c Change) Arcs(undirected bool) []Arc {
	var w matrix.Dist
	switch c.Kind {
	case KindImprove:
		w = c.Op.W
	case KindWorsen:
		w = c.OldW
	default:
		return nil
	}
	arcs := []Arc{{U: c.Op.U, V: c.Op.V, W: w}}
	if undirected {
		arcs = append(arcs, Arc{U: c.Op.V, V: c.Op.U, W: w})
	}
	return arcs
}

// Snapshot is one immutable graph version. G is the CSR graph, TR its
// transpose (aliasing G for undirected graphs) for predecessor walks, and
// Oracle the landmark oracle valid for exactly this version — nil when
// the version was produced by a mutation, because landmark distances go
// stale the moment an edge changes.
type Snapshot struct {
	Version uint64
	G       *graph.Graph
	TR      *graph.Graph
	Oracle  *oracle.Oracle
}

// Store is the versioned graph holder: an atomic pointer to the current
// Snapshot plus a writer lock serializing mutations. The reader fast path
// (Current) is one atomic load — the zero-blocking property the dynamic
// serving layer is built on, pinned by a testing.AllocsPerRun test.
type Store struct {
	cur atomic.Pointer[Snapshot]
	mu  sync.Mutex
}

// NewStore builds a store whose initial snapshot is version 1. orc may be
// nil; when present it must have been built over g.
func NewStore(g *graph.Graph, orc *oracle.Oracle) *Store {
	tr := g
	if !g.Undirected() {
		tr = g.Transpose()
	}
	s := &Store{}
	s.cur.Store(&Snapshot{Version: 1, G: g, TR: tr, Oracle: orc})
	return s
}

// Current returns the current snapshot. Readers that need a consistent
// view across several operations call Current once and use the pinned
// snapshot throughout; the store never invalidates a published snapshot.
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// Version returns the current version.
func (s *Store) Version() uint64 { return s.cur.Load().Version }

// Mutate validates and applies one edge mutation, returning the newly
// published snapshot and the change classification. reconcile, when
// non-nil, runs after the successor snapshot is fully built but *before*
// it becomes visible to readers — the serving layer uses that window to
// retag/repair its version-tagged cache so the new version is never
// observable with a stale cache. Mutations are serialized; readers are
// never blocked (they keep resolving Current against the old snapshot
// until the atomic publish).
func (s *Store) Mutate(op EdgeOp, reconcile func(old, next *Snapshot, ch Change)) (*Snapshot, Change, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	g := old.G

	var (
		ng  *graph.Graph
		ch  = Change{Op: op}
		err error
	)
	switch op.Op {
	case OpInsert:
		if _, exists := g.ArcWeight(op.U, op.V); exists {
			return nil, Change{}, fmt.Errorf("%w: %d-%d", ErrEdgeExists, op.U, op.V)
		}
		ng, _, _, err = g.WithArc(op.U, op.V, op.W)
		ch.Kind = KindImprove
	case OpDelete:
		ng, ch.OldW, err = g.WithoutArc(op.U, op.V)
		if errors.Is(err, graph.ErrNoArc) {
			err = fmt.Errorf("%w: %d-%d", ErrNoEdge, op.U, op.V)
		}
		ch.Kind = KindWorsen
	case OpReweight:
		// Range and self-loop mistakes get the splice's precise error;
		// only a well-formed pair without an arc is an ErrNoEdge conflict.
		if inRange := op.U >= 0 && int(op.U) < g.N() && op.V >= 0 && int(op.V) < g.N(); inRange && op.U != op.V {
			if _, exists := g.ArcWeight(op.U, op.V); !exists {
				return nil, Change{}, fmt.Errorf("%w: %d-%d", ErrNoEdge, op.U, op.V)
			}
		}
		ng, ch.OldW, _, err = g.WithArc(op.U, op.V, op.W)
		switch {
		case err != nil:
		case op.W < ch.OldW:
			ch.Kind = KindImprove
		case op.W > ch.OldW:
			ch.Kind = KindWorsen
		default:
			ch.Kind = KindNone
		}
	default:
		return nil, Change{}, fmt.Errorf("%w: %v", ErrOp, op.Op)
	}
	if err != nil {
		return nil, Change{}, err
	}

	next := &Snapshot{Version: old.Version + 1, G: ng}
	if ng.Undirected() {
		next.TR = ng
	} else {
		next.TR = ng.Transpose()
	}
	if reconcile != nil {
		reconcile(old, next, ch)
	}
	s.cur.Store(next)
	return next, ch, nil
}

// RowVerdict is the outcome of classifying one cached distance row
// against a change.
type RowVerdict uint8

const (
	// RowUnaffected: the row is exact in the new graph as-is; re-tag it.
	RowUnaffected RowVerdict = iota
	// RowRepairable: an improving arc lowers at least one entry; repair
	// in place with RepairImprove.
	RowRepairable
	// RowStale: a worsening arc was tight for this row; the row needs a
	// full re-solve.
	RowStale
)

func (v RowVerdict) String() string {
	switch v {
	case RowRepairable:
		return "repairable"
	case RowStale:
		return "stale"
	default:
		return "unaffected"
	}
}

// Classify decides what a change does to one exact distance row of the
// *old* graph (row[x] = d_old(src, x)).
//
// Improving arc (u,v,w): the row can only change if the new arc opens a
// shorter path to v, i.e. row[u] + w < row[v]; otherwise, for any target
// t, a simple path using the arc costs at least row[u] + w + d(v,t) >=
// row[v] + d(v,t) >= row[t] by the triangle inequality — no improvement.
//
// Worsening arc (u,v,oldW): the row can only change if the arc could lie
// on a recorded shortest path, i.e. it was tight: row[u] + oldW ==
// row[v]. A slack arc (row[u] + oldW > row[v]) makes every path through
// it strictly longer than the recorded optimum, so removing or
// lengthening it changes nothing.
func Classify(row []matrix.Dist, ch Change, undirected bool) RowVerdict {
	for _, a := range ch.Arcs(undirected) {
		switch ch.Kind {
		case KindImprove:
			if matrix.AddSat(row[a.U], a.W) < row[a.V] {
				return RowRepairable
			}
		case KindWorsen:
			if row[a.U] != matrix.Inf && matrix.AddSat(row[a.U], a.W) == row[a.V] {
				return RowStale
			}
		}
	}
	return RowUnaffected
}
