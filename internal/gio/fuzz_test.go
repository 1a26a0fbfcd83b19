package gio

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadEdgeList asserts that arbitrary input never panics the parser,
// that it fails with the same message as refReadEdgeList or returns the
// same labels and CSR, with self-loops dropped and kept, and that
// whatever parses successfully round-trips through the writer.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n"), true, false)
	f.Add([]byte("# comment\n% comment\n10\t20\n"), false, false)
	f.Add([]byte("1 2 7\n2 3 1\n"), false, true)
	f.Add([]byte(""), true, true)
	f.Add([]byte("a b c\n"), false, false)
	f.Add([]byte("9999999999999999999999 1\n"), false, false)
	f.Add([]byte("1 1\n"), true, false)
	f.Add([]byte("-5 3\n"), false, false)
	for i, s := range []struct {
		src      string
		weighted bool
	}{
		{"1\u00a02\n2\u00a0\u00a03\n", false},   // NBSP separates
		{"1\u00852\n\u0085 3 4\u0085\n", false}, // NEL separates and trims
		{"\u3000 1 \u2028 2 \u3000\n", false},   // wider Unicode spaces
		{"1 2\r\n3 4\r\n", false},
		{"1\t2\t7\n2\t3\t1\n", true},
		{"  # comment\n  % comment\n1 2\n", false},
		{"1 # 2\n", false},
		{"+5 3\n", false},
		{"0009 1\n9 2\n", false},
		{"123456789012345678 1\n", false},   // 18 digits
		{"9223372036854775807 1\n", false},  // 19 digits, the largest int64
		{"9223372036854775808 1\n", false},  // 19 digits, one past it
		{"12345678901234567890 1\n", false}, // 20 digits
		{"1 2 0\n", true},
		{"1 2 999999999\n", true},
		{"1 2 4294967294\n", true},
		{"1 2 4294967295\n", true},
		{"1 2 4294967296\n", true},
		{"1 2 +5\n", true},
		{"1 2 0009\n", true},
		{"1 2 x\n", false}, // a third column the unweighted read ignores
		{"1 2\n", true},
		{"42\n", false},
		{"1\xe2\xc2\x852\n", false}, // invalid UTF-8 before a NEL
		{"1 2\n2 1\n1 2\n1 1\n", false},
		{"1 2 5\n1 2 3\n2 1 4\n", true},
	} {
		f.Add([]byte(s.src), i%2 == 0, s.weighted)
	}
	f.Fuzz(func(t *testing.T, data []byte, undirected, weighted bool) {
		for _, keepLoops := range []bool{false, true} {
			opts := Options{Undirected: undirected, Weighted: weighted, KeepSelfLoops: keepLoops}
			res, err := ReadEdgeList(bytes.NewReader(data), opts)
			want, wantErr := refReadEdgeList(bytes.NewReader(data), opts)
			if err != nil || wantErr != nil {
				if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%q %+v: error %v, reference %v", data, opts, err, wantErr)
				}
				continue // malformed input is allowed to fail, not to panic
			}
			if !slices.Equal(res.Labels, want.Labels) {
				t.Fatalf("%q %+v: labels %v, reference %v", data, opts, res.Labels, want.Labels)
			}
			if !sameGraph(res.Graph, want.Graph) {
				t.Fatalf("%q %+v: graph differs from the reference", data, opts)
			}
			if err := res.Graph.Validate(); err != nil {
				t.Fatalf("parsed graph invalid: %v", err)
			}
			if len(res.Labels) != res.Graph.N() {
				t.Fatalf("labels %d != vertices %d", len(res.Labels), res.Graph.N())
			}
			// Round trip: what we wrote must parse back to the same shape.
			var buf bytes.Buffer
			if err := WriteEdgeList(&buf, res.Graph, res.Labels); err != nil {
				t.Fatalf("write failed: %v", err)
			}
			back, err := ReadEdgeList(strings.NewReader(buf.String()), opts)
			if err != nil {
				t.Fatalf("round trip parse failed: %v\noutput:\n%s", err, buf.String())
			}
			if back.Graph.NumArcs() != res.Graph.NumArcs() {
				t.Fatalf("round trip arcs %d -> %d", res.Graph.NumArcs(), back.Graph.NumArcs())
			}
		}
	})
}
