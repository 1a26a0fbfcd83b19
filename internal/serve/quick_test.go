package serve

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"parapsp/internal/baseline"
	"parapsp/internal/gen"
	"parapsp/internal/matrix"
)

// TestQuickOracleExactAgreement pins the serve layer's approximation
// contract with testing/quick over random graphs and query mixes:
//
//	lower <= exact <= upper          (oracle bounds bracket the truth)
//	exact answers equal Floyd-Warshall
//	approximate answers a satisfy truth <= a <= (1+tol) * truth
//
// for every random (graph, pair, tolerance) the generator draws.
func TestQuickOracleExactAgreement(t *testing.T) {
	type scenario struct {
		Seed    int64
		RawN    uint8
		RawTol  uint8
		RawUV   [10]uint16
		Weights bool
	}
	prop := func(sc scenario) bool {
		n := 16 + int(sc.RawN%49) // 16..64: FW truth stays cheap
		w := gen.Weighting{}
		if sc.Weights {
			w = gen.Weighting{Min: 1, Max: 16}
		}
		g, err := gen.BarabasiAlbert(n, 2, sc.Seed, w)
		if err != nil {
			t.Logf("gen(n=%d seed=%d): %v", n, sc.Seed, err)
			return false
		}
		truth := baseline.FloydWarshall(g)
		tol := float64(sc.RawTol%8) / 4 // 0, 0.25, ..., 1.75
		s, err := New(g, Config{Workers: 1, CacheBytes: rowsBudget(g, 8), Landmarks: 4})
		if err != nil {
			t.Logf("New: %v", err)
			return false
		}
		defer func() {
			if err := s.Shutdown(context.Background()); err != nil {
				t.Logf("shutdown: %v", err)
			}
		}()
		orc := s.Oracle()
		ctx := context.Background()
		for _, raw := range sc.RawUV {
			u := int32(int(raw) % n)
			v := int32(int(raw>>8) % n)
			d := truth.At(int(u), int(v))
			lo, up := orc.Bounds(u, v)
			if lo > d || (up != matrix.Inf && up < d) || (d == matrix.Inf && up != matrix.Inf) {
				t.Logf("bounds [%d,%d] exclude truth %d for (%d,%d) n=%d seed=%d", lo, up, d, u, v, n, sc.Seed)
				return false
			}
			// Approximate-or-exact query first (the cache may still be
			// cold for u), then a forced-exact query.
			ans, _, err := dist(ctx, s, u, v, tol)
			if err != nil {
				t.Logf("Dist approx: %v", err)
				return false
			}
			if ans.Exact {
				if ans.Dist != distToJSON(d) {
					t.Logf("exact(%d,%d) = %d, want %d", u, v, ans.Dist, distToJSON(d))
					return false
				}
			} else {
				if d == matrix.Inf {
					t.Logf("approx finite answer %d for unreachable (%d,%d)", ans.Dist, u, v)
					return false
				}
				if ans.Dist < int64(d) || float64(ans.Dist) > (1+tol)*float64(d) {
					t.Logf("approx(%d,%d) = %d outside [%d, %g] (tol=%g)", u, v, ans.Dist, d, (1+tol)*float64(d), tol)
					return false
				}
			}
			exact, _, err := dist(ctx, s, u, v, 0)
			if err != nil {
				t.Logf("Dist exact: %v", err)
				return false
			}
			if !exact.Exact || exact.Dist != distToJSON(d) {
				t.Logf("forced exact(%d,%d) = %+v, want %d", u, v, exact, distToJSON(d))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 25,
		Rand:     rand.New(rand.NewSource(1)),
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
