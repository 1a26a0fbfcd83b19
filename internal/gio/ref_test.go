package gio

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// refReadEdgeList is ReadEdgeList as strings.Fields and strconv over one
// string per line, with every label interned in a second pass: the
// reference the byte-level parser must match, error messages included.
func refReadEdgeList(r io.Reader, opts Options) (*Result, error) {
	type rawEdge struct {
		u, v int64
		w    matrix.Dist
	}
	var raw []rawEdge
	ids := make(map[int64]int32)
	var labels []int64
	intern := func(label int64) int32 {
		if id, ok := ids[label]; ok {
			return id
		}
		id := int32(len(labels))
		ids[label] = id
		labels = append(labels, label)
		return id
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%w: line %d: %q", ErrFormat, lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bad source %q", ErrFormat, lineNo, fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bad target %q", ErrFormat, lineNo, fields[1])
		}
		w := matrix.Dist(1)
		if opts.Weighted {
			if len(fields) < 3 {
				return nil, fmt.Errorf("%w: line %d: missing weight", ErrFormat, lineNo)
			}
			wv, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil || wv == 0 || matrix.Dist(wv) == matrix.Inf {
				return nil, fmt.Errorf("%w: line %d: bad weight %q", ErrFormat, lineNo, fields[2])
			}
			w = matrix.Dist(wv)
		}
		raw = append(raw, rawEdge{u, v, w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	for _, e := range raw {
		intern(e.u)
		intern(e.v)
	}
	b := graph.NewBuilder(len(labels), opts.Undirected)
	if opts.KeepSelfLoops {
		b.KeepSelfLoops()
	}
	if opts.Weighted {
		b.ForceWeighted()
	}
	for _, e := range raw {
		if err := b.AddWeighted(ids[e.u], ids[e.v], e.w); err != nil {
			return nil, err
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Result{Graph: g, Labels: labels}, nil
}

// sameGraph reports whether a and b have the same vertices, flags, and
// adjacency and weight lists in the same order: the same CSR arrays.
func sameGraph(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.Undirected() != b.Undirected() || a.Weighted() != b.Weighted() {
		return false
	}
	for v := int32(0); v < int32(a.N()); v++ {
		at, aw := a.NeighborsW(v)
		bt, bw := b.NeighborsW(v)
		if !slices.Equal(at, bt) || !slices.Equal(aw, bw) {
			return false
		}
	}
	return true
}
