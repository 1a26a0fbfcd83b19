package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"parapsp/internal/admit"
	"parapsp/internal/gen"
	"parapsp/internal/gio"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
	"parapsp/internal/serve"
)

// input is a workload's graph as the system sees it: generated from the
// seed, written as a SNAP edge list, and loaded back through gio, so vertex
// ids are the loader's.
type input struct {
	g        *graph.Graph
	edges    []byte // the edge list gio loads
	weighted bool
}

// powerLawInput is the paper's complex-network regime: a configuration-
// model power-law graph (gamma 2.5, minimum degree 2), undirected, with
// uniform weights in [1,100].
func powerLawInput(n int, seed int64) (*input, error) {
	g, err := gen.PowerLawConfiguration(n, 2.5, 2, true, 1, gen.Weighting{Min: 1, Max: 100})
	if err != nil {
		return nil, err
	}
	if g, err = gen.Relabel(g, seed); err != nil {
		return nil, err
	}
	return newInput(g, true)
}

// gridInput is the opposite regime: an unweighted square lattice with flat
// degrees and a large diameter.
func gridInput(n int, seed int64) (*input, error) {
	side := int(math.Sqrt(float64(n)))
	g, err := gen.Grid2D(side, side, true, seed, gen.Weighting{})
	if err != nil {
		return nil, err
	}
	return newInput(g, false)
}

func newInput(g *graph.Graph, weighted bool) (*input, error) {
	var buf bytes.Buffer
	if err := gio.WriteEdgeList(&buf, g, nil); err != nil {
		return nil, err
	}
	in := &input{edges: buf.Bytes(), weighted: weighted}
	loaded, _, err := in.load()
	if err != nil {
		return nil, err
	}
	in.g = loaded
	return in, nil
}

// load parses the edge list with gio and returns the graph and the time
// the parse took.
func (in *input) load() (*graph.Graph, time.Duration, error) {
	start := time.Now()
	res, err := gio.ReadEdgeList(bytes.NewReader(in.edges), gio.Options{Undirected: true, Weighted: in.weighted})
	if err != nil {
		return nil, 0, fmt.Errorf("loading edge list: %w", err)
	}
	return res.Graph, time.Since(start), nil
}

// kind is a request type of the serving workloads.
type kind uint8

const (
	kindDist    kind = iota // premium GET /dist
	kindDistTol             // best-effort GET /dist?tol=0.5
	kindBatch               // premium POST /batch of batchSize queries
	kindPath                // premium GET /path
	kindEdge                // POST /edge reweight
	numKinds
)

var kindNames = [numKinds]string{"dist", "dist_tol", "batch", "path", "edge"}

// Fixed traffic parameters of the serving workloads.
const (
	zipfS     = 1.1 // source skew
	batchSize = 16
	tolerance = 0.5 // best-effort /dist tolerance
	maxWeight = 100 // reweights draw from [1, maxWeight], like the graph
)

// request is one scheduled request and, once sent, its outcome. Times are
// offsets from the start of the phase that sent it.
type request struct {
	id   int // unique within a run
	kind kind
	u, v int32
	qs   []serve.Query // kindBatch
	w    matrix.Dist   // kindEdge

	due, sent, end time.Duration
	status         int
	version        uint64
	solver         string
	body           []byte
	err            error
}

func (r *request) latency() time.Duration { return r.end - r.due }

// label identifies the request in a traced run's spans.
func (r *request) label() string { return "r" + strconv.Itoa(r.id) }

// httpRequest builds the request's HTTP form against base, the server's
// URL: GET /dist and /path with query parameters, POST /batch and /edge
// with JSON bodies, and the tier header of the mix.
func (r *request) httpRequest(base string) (*http.Request, error) {
	var (
		hr  *http.Request
		err error
	)
	switch r.kind {
	case kindDist, kindPath:
		path := "/dist"
		if r.kind == kindPath {
			path = "/path"
		}
		hr, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s%s?u=%d&v=%d", base, path, r.u, r.v), nil)
	case kindDistTol:
		hr, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/dist?u=%d&v=%d&tol=%g", base, r.u, r.v, tolerance), nil)
	case kindBatch:
		body, _ := json.Marshal(map[string]any{"queries": r.qs})
		hr, err = http.NewRequest(http.MethodPost, base+"/batch", bytes.NewReader(body))
	case kindEdge:
		body := fmt.Sprintf(`{"op":"reweight","u":%d,"v":%d,"w":%d}`, r.u, r.v, r.w)
		hr, err = http.NewRequest(http.MethodPost, base+"/edge", strings.NewReader(body))
	}
	if err != nil {
		return nil, err
	}
	if r.kind != kindEdge {
		tier := admit.Premium
		if r.kind == kindDistTol {
			tier = admit.BestEffort
		}
		hr.Header.Set(admit.DefaultTierHeader, tier.String())
	}
	return hr, nil
}

// record stores a response in r.
func (r *request) record(status int, h http.Header, body []byte) {
	r.status, r.body = status, body
	r.version, _ = strconv.ParseUint(h.Get("X-Parapsp-Graph-Version"), 10, 64)
	r.solver = h.Get("X-Parapsp-Solver")
}

// mix draws the serving workloads' read mix: 60% premium /dist, 25%
// best-effort /dist with tolerance 0.5, 10% premium /batch of 16, 5%
// premium /path. Sources follow Zipf(1.1) over popularity, a seeded
// permutation of the vertices, so popular sources are spread over the id
// space; targets are uniform.
type mix struct {
	rng        *rand.Rand
	zipf       *rand.Zipf
	popularity []int // popularity[k] is the k-th most popular source
}

func newMix(popularity []int, seed int64) *mix {
	rng := rand.New(rand.NewSource(seed))
	return &mix{
		rng:        rng,
		zipf:       rand.NewZipf(rng, zipfS, 1, uint64(len(popularity)-1)),
		popularity: popularity,
	}
}

func (m *mix) source() int32 { return int32(m.popularity[m.zipf.Uint64()]) }
func (m *mix) target() int32 { return int32(m.rng.Intn(len(m.popularity))) }

func (m *mix) read() *request {
	r := &request{u: m.source(), v: m.target()}
	switch p := m.rng.Float64(); {
	case p < 0.60:
		r.kind = kindDist
	case p < 0.85:
		r.kind = kindDistTol
	case p < 0.95:
		r.kind = kindBatch
		r.qs = make([]serve.Query, batchSize)
		for i := range r.qs {
			r.qs[i] = serve.Query{U: m.source(), V: m.target()}
		}
	default:
		r.kind = kindPath
	}
	return r
}

// reads draws count reads.
func (m *mix) reads(count int) []*request {
	out := make([]*request, count)
	for i := range out {
		out[i] = m.read()
	}
	return out
}

// poissonDue returns the due times of a Poisson arrival process at rate
// per second over the window.
func poissonDue(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return due
		}
		due = append(due, d)
	}
}

// edgePicker draws reweights of existing edges: a uniformly chosen edge
// (as an ordered pair u < v) between two vertices of at most the median
// degree, and a new uniform weight. Such an edge lies on few shortest
// paths, so a write costs the serving tiers a scan of every row but drops
// few of them, and the tiers stay in the state the warm-up left them in. A
// hub edge would instead invalidate most rows at once and leave the rest
// of the window with emptied tiers.
type edgePicker struct {
	rng   *rand.Rand
	pairs [][2]int32
}

func newEdgePicker(g *graph.Graph, seed int64) *edgePicker {
	deg := g.Degrees()
	sorted := append([]int(nil), deg...)
	sort.Ints(sorted)
	low := sorted[len(sorted)/2]
	p := &edgePicker{rng: rand.New(rand.NewSource(seed))}
	for u := int32(0); int(u) < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v && deg[u] <= low && deg[v] <= low {
				p.pairs = append(p.pairs, [2]int32{u, v})
			}
		}
	}
	return p
}

func (p *edgePicker) write() *request {
	e := p.pairs[p.rng.Intn(len(p.pairs))]
	return &request{kind: kindEdge, u: e[0], v: e[1], w: matrix.Dist(1 + p.rng.Intn(maxWeight))}
}
