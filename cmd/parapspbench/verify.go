package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/serve"
)

// truthFunc returns the exact distance row of source u, and the graph, at
// graph version ver. ok is false for a version the benchmark never saw
// published.
type truthFunc func(ver uint64, u int32) (row []matrix.Dist, g *graph.Graph, ok bool)

type batchWire struct {
	Answers []serve.Answer `json:"answers"`
}

type pathWire struct {
	serve.Answer
	Path []int32 `json:"path"`
	Hops int     `json:"hops"`
}

// checkRead verifies one completed read against the truth at the version
// its response reports: premium answers and paths are exact, a path's hops
// sum to its distance, and best-effort answers satisfy
// lower <= truth <= upper <= (1+tol)*truth.
func checkRead(r *request, truth truthFunc) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	switch r.kind {
	case kindDist, kindDistTol:
		var a serve.Answer
		if err := json.Unmarshal(r.body, &a); err != nil {
			return err
		}
		return checkAnswer(a, serve.Query{U: r.u, V: r.v}, r.kind == kindDist, r.version, truth)
	case kindBatch:
		var b batchWire
		if err := json.Unmarshal(r.body, &b); err != nil {
			return err
		}
		if len(b.Answers) != len(r.qs) {
			return fmt.Errorf("batch of %d got %d answers", len(r.qs), len(b.Answers))
		}
		for i, a := range b.Answers {
			if err := checkAnswer(a, r.qs[i], true, r.version, truth); err != nil {
				return err
			}
		}
		return nil
	case kindPath:
		var p pathWire
		if err := json.Unmarshal(r.body, &p); err != nil {
			return err
		}
		if err := checkAnswer(p.Answer, serve.Query{U: r.u, V: r.v}, true, r.version, truth); err != nil {
			return err
		}
		_, g, _ := truth(r.version, r.u)
		return checkPath(g, r.u, r.v, p)
	}
	return fmt.Errorf("not a read: %s", kindNames[r.kind])
}

func checkAnswer(a serve.Answer, q serve.Query, premium bool, ver uint64, truth truthFunc) error {
	if a.U != q.U || a.V != q.V {
		return fmt.Errorf("answer for (%d,%d) to query (%d,%d)", a.U, a.V, q.U, q.V)
	}
	row, _, ok := truth(ver, q.U)
	if !ok {
		return fmt.Errorf("answer at unknown graph version %d", ver)
	}
	want := int64(-1)
	if d := row[q.V]; d != matrix.Inf {
		want = int64(d)
	}
	if a.Exact {
		if a.Dist != want {
			return fmt.Errorf("d(%d,%d) = %d at version %d, want %d", q.U, q.V, a.Dist, ver, want)
		}
		return nil
	}
	if premium {
		return fmt.Errorf("premium d(%d,%d) answered approximately", q.U, q.V)
	}
	if want < 0 || a.Lower > want || want > a.Upper || a.Dist != a.Upper ||
		float64(a.Upper) > (1+tolerance)*float64(want) {
		return fmt.Errorf("approximate d(%d,%d) = %d in [%d,%d] at version %d, truth %d",
			q.U, q.V, a.Dist, a.Lower, a.Upper, ver, want)
	}
	return nil
}

// checkPath holds a path to its answer: it runs from u to v over arcs of
// g whose weights sum to the distance, or is empty with hops -1 when v is
// unreachable.
func checkPath(g *graph.Graph, u, v int32, p pathWire) error {
	if p.Dist < 0 {
		if len(p.Path) != 0 || p.Hops != -1 {
			return fmt.Errorf("unreachable (%d,%d) with path %v", u, v, p.Path)
		}
		return nil
	}
	if len(p.Path) == 0 || p.Path[0] != u || p.Path[len(p.Path)-1] != v || p.Hops != len(p.Path)-1 {
		return fmt.Errorf("path %v (hops %d) does not run from %d to %d", p.Path, p.Hops, u, v)
	}
	var sum int64
	for i := 1; i < len(p.Path); i++ {
		w, ok := g.ArcWeight(p.Path[i-1], p.Path[i])
		if !ok {
			return fmt.Errorf("path %v uses missing arc %d->%d", p.Path, p.Path[i-1], p.Path[i])
		}
		sum += int64(w)
	}
	if sum != p.Dist {
		return fmt.Errorf("path %v of (%d,%d) weighs %d, distance %d", p.Path, u, v, sum, p.Dist)
	}
	return nil
}
