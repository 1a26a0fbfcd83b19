// Package gio reads and writes the edge-list formats of the two
// repositories the paper draws its datasets from: SNAP (lines of
// "u<TAB>v", comments starting with '#') and KONECT (comments starting
// with '%', optional weight and timestamp columns). Vertex labels are
// arbitrary int64s, negative ones included, and are remapped to the dense
// ids the CSR representation requires; the mapping is returned so results
// can be reported in the original labels.
//
// With these loaders the real SNAP/KONECT files can be dropped into the
// benchmark harness in place of the synthetic stand-ins.
package gio

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// Options controls edge-list parsing.
type Options struct {
	// Undirected builds the graph with both arc directions. SNAP/KONECT
	// undirected files list each edge once.
	Undirected bool
	// Weighted reads a third column as the edge weight. Without it any
	// extra columns (KONECT weight/timestamp) are ignored and every edge
	// weighs 1, matching the paper's use of the datasets.
	Weighted bool
	// KeepSelfLoops retains self-loop edges (default: dropped).
	KeepSelfLoops bool
}

// Result is a parsed edge list.
type Result struct {
	Graph *graph.Graph
	// Labels maps dense vertex id -> original file label.
	Labels []int64
}

// ErrFormat reports a malformed edge-list line.
var ErrFormat = errors.New("gio: malformed edge list")

// ReadEdgeList parses an edge list from r.
//
// Fields are split on the white space strings.Fields splits on, the
// Unicode spaces included, and a line whose first field starts with '#'
// or '%' is a comment. Labels are base-10 int64s as strconv.ParseInt reads
// them (a sign and leading zeros allowed); weights are base-10 integers in
// [1, Inf) as strconv.ParseUint reads them. Lines are read as bytes and
// labels are interned in first-seen order as they are read.
func ReadEdgeList(r io.Reader, opts Options) (*Result, error) {
	var edges []graph.Edge
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
		line := sc.Bytes()
		s0, e0 := field(line, 0)
		if s0 == e0 || line[s0] == '#' || line[s0] == '%' {
			continue
		}
		s1, e1 := field(line, e0)
		if s1 == e1 {
			return nil, fmt.Errorf("%w: line %d: %q", ErrFormat, lineNo, bytes.TrimSpace(line))
		}
		// The string conversions below do not escape, so they are made on
		// the stack, not the heap.
		u, err := strconv.ParseInt(string(line[s0:e0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bad source %q", ErrFormat, lineNo, line[s0:e0])
		}
		v, err := strconv.ParseInt(string(line[s1:e1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bad target %q", ErrFormat, lineNo, line[s1:e1])
		}
		w := matrix.Dist(1)
		if opts.Weighted {
			s2, e2 := field(line, e1)
			if s2 == e2 {
				return nil, fmt.Errorf("%w: line %d: missing weight", ErrFormat, lineNo)
			}
			wv, err := strconv.ParseUint(string(line[s2:e2]), 10, 32)
			if err != nil || wv == 0 || matrix.Dist(wv) == matrix.Inf {
				return nil, fmt.Errorf("%w: line %d: bad weight %q", ErrFormat, lineNo, line[s2:e2])
			}
			w = matrix.Dist(wv)
		}
		edges = append(edges, graph.Edge{From: intern(u), To: intern(v), W: w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	b := graph.NewBuilder(len(labels), opts.Undirected)
	if opts.KeepSelfLoops {
		b.KeepSelfLoops()
	}
	if opts.Weighted {
		// A weighted file stays weighted even if every weight is 1, so
		// WriteEdgeList preserves the weight column on round trips.
		b.ForceWeighted()
	}
	for _, e := range edges {
		if err := b.AddWeighted(e.From, e.To, e.W); err != nil {
			return nil, err
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Result{Graph: g, Labels: labels}, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// field returns the bounds [start, end) of the first field of line at or
// after i: a maximal run of runes that are not white space by
// unicode.IsSpace, the rule strings.Fields and strings.TrimSpace use.
// start == end when only white space is left.
func field(line []byte, i int) (start, end int) {
	start = len(line) // not in a field yet
	for i < len(line) {
		width, space := 1, false
		if c := line[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			// Invalid UTF-8 decodes as one non-space byte, as in a range
			// loop over a string.
			var r rune
			r, width = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case !space && start == len(line):
			start = i
		case space && start < len(line):
			return start, i
		}
		i += width
	}
	return start, len(line)
}

// ReadFile parses an edge-list file; names ending in ".gz" are
// transparently decompressed.
func ReadFile(path string, opts Options) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, err
		}
		defer zr.Close()
		r = zr
	}
	return ReadEdgeList(r, opts)
}

// WriteEdgeList writes g to w in SNAP format: a comment header followed by
// one "u<TAB>v[<TAB>weight]" line per arc (per edge for undirected graphs,
// emitting each edge once with u <= v).
func WriteEdgeList(w io.Writer, g *graph.Graph, labels []int64) error {
	bw := bufio.NewWriter(w)
	kind := "Directed"
	if g.Undirected() {
		kind = "Undirected"
	}
	fmt.Fprintf(bw, "# %s graph: %d nodes, %d edges\n", kind, g.N(), g.NumEdges())
	fmt.Fprintf(bw, "# FromNodeId\tToNodeId%s\n", map[bool]string{true: "\tWeight", false: ""}[g.Weighted()])
	label := func(v int32) int64 {
		if labels != nil {
			return labels[v]
		}
		return int64(v)
	}
	for u := int32(0); u < int32(g.N()); u++ {
		adj, wts := g.NeighborsW(u)
		for i, v := range adj {
			if g.Undirected() && v < u {
				continue // each undirected edge once
			}
			if g.Weighted() {
				fmt.Fprintf(bw, "%d\t%d\t%d\n", label(u), label(v), wts[i])
			} else {
				fmt.Fprintf(bw, "%d\t%d\n", label(u), label(v))
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes g to path in SNAP format; ".gz" names are compressed.
func WriteFile(path string, g *graph.Graph, labels []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gz") {
		zw := gzip.NewWriter(f)
		if err := WriteEdgeList(zw, g, labels); err != nil {
			zw.Close()
			return err
		}
		return zw.Close()
	}
	return WriteEdgeList(f, g, labels)
}
