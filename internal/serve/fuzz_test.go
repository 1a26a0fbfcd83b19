package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"parapsp/internal/dyn"
	"parapsp/internal/gen"
	"parapsp/internal/matrix"
)

// fuzzSrv lazily builds one tiny shared server for handler-level fuzzing;
// building per-input would drown the fuzzer in oracle solves.
var (
	fuzzOnce sync.Once
	fuzzS    *Server
	fuzzH    http.Handler
)

func fuzzServer(t *testing.T) http.Handler {
	fuzzOnce.Do(func() {
		g, err := gen.BarabasiAlbert(16, 2, 1, gen.Weighting{})
		if err != nil {
			t.Fatalf("gen: %v", err)
		}
		fuzzS, err = New(g, Config{Workers: 1, CacheBytes: rowsBudget(g, 8), Landmarks: 2})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		fuzzH = fuzzS.Handler()
	})
	return fuzzH
}

// FuzzParseQuery pins the request-decoding contract of the HTTP surface:
// arbitrary /batch bodies and /dist query strings — malformed JSON,
// out-of-range vertex ids, empty or oversized batches, hostile tolerances
// — never panic and never produce a 5xx; a decode failure is always a
// 4xx. The seed corpus under testdata/fuzz/FuzzParseQuery runs as plain
// regression cases in every `go test` pass.
func FuzzParseQuery(f *testing.F) {
	f.Add([]byte(`{"queries":[{"u":0,"v":1}],"tol":0.5}`), "u=0&v=1")
	f.Add([]byte(`{"queries":[{"u":3,"v":2},{"u":1,"v":0}]}`), "u=3&v=2&tol=0.25")
	f.Add([]byte(`{"queries":`), "u=1")
	f.Add([]byte(`{"queries":[{"u":-5,"v":99999999999}]}`), "u=-1&v=2")
	f.Add([]byte(`{"queries":[],"tol":-1}`), "u=0&v=0&tol=NaN")
	f.Add([]byte(`{"queries":[{"u":1.5,"v":2}]}`), "u=1.5&v=2")
	f.Add([]byte(`null`), "%zz")
	f.Fuzz(func(t *testing.T, body []byte, rawQuery string) {
		const n, maxBatch = 16, 8

		// Decoder level: no panics, and a nil error implies validated output.
		qs, tol, err := ParseBatch(body, n, maxBatch)
		if err == nil {
			if len(qs) == 0 || len(qs) > maxBatch {
				t.Fatalf("ParseBatch accepted batch of %d", len(qs))
			}
			for _, q := range qs {
				if q.U < 0 || int(q.U) >= n || q.V < 0 || int(q.V) >= n {
					t.Fatalf("ParseBatch accepted out-of-range query %+v", q)
				}
			}
			if tol < 0 {
				t.Fatalf("ParseBatch accepted tol %g", tol)
			}
		}
		if vals, qerr := url.ParseQuery(rawQuery); qerr == nil {
			u, v, tol, derr := ParseDistQuery(vals, n)
			if derr == nil && (u < 0 || int(u) >= n || v < 0 || int(v) >= n || tol < 0) {
				t.Fatalf("ParseDistQuery accepted invalid (%d,%d,%g)", u, v, tol)
			}
		}

		// Handler level: any input yields 200 or a 4xx, never a 5xx.
		h := fuzzServer(t)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("/batch status %d for body %q", rec.Code, body)
		}
		req := httptest.NewRequest(http.MethodGet, "/dist", nil)
		req.URL.RawQuery = rawQuery
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("/dist status %d for query %q", rec.Code, rawQuery)
		}
	})
}

// FuzzParseEdgeOp pins the mutation-decoding contract: arbitrary /edge
// bodies never panic and never 5xx — malformed input is always a 4xx —
// and anything the decoder accepts is a fully validated op (known verb,
// in-range distinct endpoints, weight in [1,Inf) exactly when the verb
// takes one) that survives a JSON round-trip unchanged.
func FuzzParseEdgeOp(f *testing.F) {
	f.Add([]byte(`{"op":"insert","u":0,"v":1,"w":3}`))
	f.Add([]byte(`{"op":"reweight","u":2,"v":5,"w":1}`))
	f.Add([]byte(`{"op":"delete","u":1,"v":0}`))
	f.Add([]byte(`{"op":"delete","u":1,"v":0,"w":2}`))
	f.Add([]byte(`{"op":"insert","u":1,"v":1,"w":1}`))
	f.Add([]byte(`{"op":"insert","u":1,"v":2}`))
	f.Add([]byte(`{"op":"insert","u":-1,"v":99999999999,"w":0}`))
	f.Add([]byte(`{"op":"upsert","u":0,"v":1,"w":1}`))
	f.Add([]byte(`{"op":"insert","u":0,"v":1,"w":4294967295}`))
	f.Add([]byte(`{"op":"insert","u":0,"v":1,"w":1,"weight":9}`))
	f.Add([]byte(`{"op":"insert","u":0,"v":1,"w":1}{"op":"delete","u":0,"v":1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		const n = 16
		op, err := ParseEdgeOp(body, n)
		if err == nil {
			if op.U < 0 || int(op.U) >= n || op.V < 0 || int(op.V) >= n || op.U == op.V {
				t.Fatalf("ParseEdgeOp accepted invalid endpoints %+v", op)
			}
			switch op.Op {
			case dyn.OpDelete:
				if op.W != 0 {
					t.Fatalf("delete carried weight %d", op.W)
				}
			case dyn.OpInsert, dyn.OpReweight:
				if op.W < 1 || op.W >= matrix.Inf {
					t.Fatalf("ParseEdgeOp accepted weight %d", op.W)
				}
			default:
				t.Fatalf("ParseEdgeOp accepted unknown verb %d", op.Op)
			}
			// Valid ops round-trip through the wire format unchanged.
			wire := fmt.Sprintf(`{"op":%q,"u":%d,"v":%d,"w":%d}`, op.Op, op.U, op.V, op.W)
			if op.Op == dyn.OpDelete {
				wire = fmt.Sprintf(`{"op":%q,"u":%d,"v":%d}`, op.Op, op.U, op.V)
			}
			back, rerr := ParseEdgeOp([]byte(wire), n)
			if rerr != nil || back != op {
				t.Fatalf("round-trip of %+v via %s: %+v, %v", op, wire, back, rerr)
			}
		}

		// Handler level: any body yields 200 or a 4xx, never a 5xx. (409s
		// from valid ops that conflict with the shared fuzz graph are fine.)
		h := fuzzServer(t)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/edge", bytes.NewReader(body)))
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("/edge status %d for body %q", rec.Code, body)
		}
	})
}
