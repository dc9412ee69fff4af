package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"xbar/internal/combin"
	"xbar/internal/core"
	"xbar/internal/rng"
	"xbar/internal/scenario"
	"xbar/internal/server"
)

// endpoint indexes the six POST routes of xbard the workloads drive.
type endpoint int

const (
	epBlocking endpoint = iota
	epRevenue
	epAdmission
	epSweep
	epGrid
	epScenario
	numEndpoints
)

var endpointNames = [numEndpoints]string{"blocking", "revenue", "admission", "sweep", "grid", "scenario"}

func (e endpoint) String() string { return endpointNames[e] }

func (e endpoint) path() string { return "/v1/" + endpointNames[e] }

// Algorithm names as the API spells them.
const (
	alg1 = "alg1"
	alg2 = "alg2"
)

// request is one distinct generated input. body is all xbard receives;
// in is its decoded form, which the oracle and the replay read.
// Requests served off a solver-cache entry name it (entry, alg, sw), so
// the replay can mirror the cache.
type request struct {
	ep    endpoint
	body  []byte
	in    any    // *server.BlockingRequest, ... or *scenario.Spec
	entry string // canonical solver-cache entry; "" when none is used
	alg   string
	sw    core.Switch // the entry's switch
	want  any         // expected response, set by solveAll
}

// cells is the lattice size one cache miss of the request fills.
func (r *request) cells() int64 {
	if r.entry == "" {
		return 0
	}
	return int64(r.sw.N1+1) * int64(r.sw.N2+1)
}

// workloadNames lists the workloads in the order -workload all runs
// them.
var workloadNames = []string{"hot-hit", "miss-fill", "mixed-tiers", "cluster-3node"}

// workload is one traffic mix: a pool of distinct requests, the prefill
// that warms the caches before timing, the picker that draws the
// request sequence, and the open-loop burst settings.
type workload struct {
	name      string
	nodes     int
	reqs      []request
	prefill   []int
	pick      func(st *rng.Stream) int
	burstRate float64       // requests per second in the burst phase
	limit     time.Duration // burst-phase latency limit
	root      *rng.Stream
}

// streams returns the random streams of one phase's workers. Each is a
// substream of the seed, so a sequence never depends on how far an
// earlier phase got.
func (w *workload) streams(phase int) [workers]*rng.Stream {
	var st [workers]*rng.Stream
	for i := range st {
		st[i] = w.root.Substream(streamID(phase, i))
	}
	return st
}

// streamID numbers the substreams: phase by phase, one per worker plus
// one for the open-loop schedule; 0 generates the request pool.
func streamID(phase, i int) uint64 { return uint64(1 + (workers+1)*phase + i) }

// newWorkload generates a workload's request pool from the seed. Each
// burst rate is about a quarter of the workload's closed-loop
// throughput as measured on the 2-vCPU host the benchmark was sized on
// while that host ran at about half speed, so the open loop stays below
// capacity in slow periods. Each limit lies above the burst phase's p99
// latency there at nominal speed, so that at most about 1% of the
// arrivals miss it, and above four times the generator's p99 lateness
// at nominal speed in slow hours, with room to spare, so that the
// lateness guard holds. README.md records the measurements.
func newWorkload(name string, seed uint64) (*workload, error) {
	root := rng.NewStream(seed)
	g := &gen{st: root.Substream(0)}
	w := &workload{name: name, nodes: 1, root: root}
	switch name {
	case "hot-hit":
		w.hotMix(g, 16, 16, 64)
		w.burstRate, w.limit = 2000, 8*time.Millisecond
	case "miss-fill":
		w.missFill(g)
		w.burstRate, w.limit = 350, 12*time.Millisecond
	case "mixed-tiers":
		w.mixedTiers(g)
		w.burstRate, w.limit = 900, 10*time.Millisecond
	case "cluster-3node":
		w.nodes = 3
		w.hotMix(g, 64, 16, 96)
		w.burstRate, w.limit = 1000, 10*time.Millisecond
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if g.err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, g.err)
	}
	return w, nil
}

// add marshals rq's input into its body and appends it to the pool.
func (w *workload) add(g *gen, rq request) int {
	body, err := json.Marshal(rq.in)
	g.keep(err)
	rq.body = body
	w.reqs = append(w.reqs, rq)
	return len(w.reqs) - 1
}

// hotMix is the mix of hot-hit and cluster-3node: /v1/blocking 70%,
// /v1/revenue 20% and /v1/admission 10% over a few two-class models,
// all prefilled, so every request is a cache hit.
func (w *workload) hotMix(g *gen, models, nLo, nHi int) {
	n1s, n2s := g.dims(models, nLo, nHi)
	for m := 0; m < models; m++ {
		spec := g.twoClass(n1s[m], n2s[m], 1)
		weights := []float64{g.in(1, 2), g.in(2, 5)}
		w.prefill = append(w.prefill, w.add(g, g.lattice(epBlocking, &server.BlockingRequest{SwitchSpec: spec}, alg1, spec)))
		w.add(g, g.lattice(epRevenue, &server.RevenueRequest{SwitchSpec: spec, Weights: weights}, alg1, spec))
		for c := 0; c < 2; c++ {
			w.add(g, g.lattice(epAdmission, &server.AdmissionRequest{SwitchSpec: spec, Class: c, Weights: weights}, alg1, spec))
		}
	}
	w.pick = func(st *rng.Stream) int {
		m := 4 * st.Intn(models)
		switch u := st.Float64(); {
		case u < 0.7:
			return m
		case u < 0.9:
			return m + 1
		}
		return m + 2 + st.Intn(2)
	}
}

// missFill draws 1 024 models (N 96-192, two or three classes of mixed
// BPP kinds) with Zipf(0.9) popularity, far more than xbard's default
// 64-entry cache holds: /v1/blocking 80% (60% Algorithm 1, 40%
// Algorithm 2) and /v1/sweep 20%. The 64 most popular models are
// prefilled. About 29% of requests hit the cache, so the median latency
// is a fill's; under Zipf(1.1) the hit ratio sat at 0.5 and the median
// jumped between a hit's latency and a fill's from seed to seed.
func (w *workload) missFill(g *gen) {
	const models = 1024
	n1s, n2s := g.dims(models, 96, 192)
	for m := 0; m < models; m++ {
		n1, n2 := n1s[m], n2s[m]
		spec := server.SwitchSpec{N1: n1, N2: n2}
		for c, nc := 0, 2+m%2; c < nc; c++ {
			spec.Classes = append(spec.Classes, g.class(bppKind(g.st.Intn(3)), c+1, n1, n2, g.in(0.01, 0.06)/float64(c+1)))
		}
		points := make([]server.SweepPoint, 8)
		for i := range points {
			points[i] = server.SweepPoint{N1: g.intIn(1, n1), N2: g.intIn(1, n2)}
		}
		for _, alg := range []string{alg1, alg2} {
			w.add(g, g.lattice(epBlocking, &server.BlockingRequest{SwitchSpec: spec, Algorithm: alg}, alg, spec))
		}
		for _, alg := range []string{alg1, alg2} {
			w.add(g, g.lattice(epSweep, &server.SweepRequest{SwitchSpec: spec, Algorithm: alg, Points: points}, alg, spec))
		}
	}
	for m := 0; m < 64; m++ {
		w.prefill = append(w.prefill, 4*m)
	}
	z := newZipf(models, 0.9)
	w.pick = func(st *rng.Stream) int {
		i := 4 * z.draw(st)
		if st.Float64() >= 0.6 {
			i++ // Algorithm 2
		}
		if st.Float64() >= 0.8 {
			i += 2 // sweep
		}
		return i
	}
}

// mixedTiers exercises every tier at once: /v1/grid 30%, /v1/scenario
// 25%, asymptotic-tier /v1/blocking 25% (N 1024-4096, dispatch auto),
// /v1/sweep with weights 15%, /v1/revenue with gradients 5%. Every
// cacheable request is prefilled once; the pools are larger than the
// caches, so entries churn.
func (w *workload) mixedTiers(g *gen) {
	var grids, scenarios, asym, sweeps, revs []int
	n1s, n2s := g.dims(64, 16, 64)
	for i := 0; i < 64; i++ {
		grids = append(grids, w.add(g, g.gridRequest(n1s[i], n2s[i])))
	}
	for i := 0; i < 96; i++ {
		scenarios = append(scenarios, w.add(g, request{ep: epScenario, in: g.scenario(i)}))
	}
	n1s, n2s = g.dims(64, 32, 96)
	for i := 0; i < 64; i++ {
		spec := g.twoClass(n1s[i], n2s[i], 1)
		req := &server.SweepRequest{SwitchSpec: spec, Weights: []float64{g.in(1, 2), g.in(2, 5)}, Points: make([]server.SweepPoint, 8)}
		for j := range req.Points {
			req.Points[j] = server.SweepPoint{N1: g.intIn(1, spec.N1), N2: g.intIn(1, spec.N2)}
		}
		sweeps = append(sweeps, w.add(g, g.lattice(epSweep, req, alg1, spec)))
	}
	for i := 0; i < 16; i++ {
		spec := g.twoClass(g.intIn(16, 48), g.intIn(16, 48), 1)
		req := &server.RevenueRequest{SwitchSpec: spec, Weights: []float64{g.in(1, 2), g.in(2, 5)}, Gradients: true}
		revs = append(revs, w.add(g, g.lattice(epRevenue, req, alg1, spec)))
	}
	w.prefill = append(append(append(append(w.prefill, grids...), scenarios...), sweeps...), revs...)
	// Asymptotic requests bypass every cache. Only models the tier
	// answers within the default tolerance are kept: the others would
	// be a 422 above the exact tier's 1024 limit.
	for tries := 0; len(asym) < 64; tries++ {
		if tries == 4096 {
			g.keep(fmt.Errorf("too few models within the asymptotic tier's tolerance"))
			break
		}
		spec := g.twoClass(g.intIn(1024, 4096), g.intIn(1024, 4096), 6)
		sw, err := switchOf(spec)
		if err != nil {
			g.keep(err)
			break
		}
		if _, ok, err := core.TryAsymptotic(sw, core.DispatchOptions{}); err != nil || !ok {
			continue
		}
		req := &server.BlockingRequest{SwitchSpec: spec, DispatchSpec: server.DispatchSpec{Dispatch: "auto"}}
		asym = append(asym, w.add(g, request{ep: epBlocking, in: req}))
	}
	sections := []struct {
		share float64
		idx   []int
	}{{0.30, grids}, {0.25, scenarios}, {0.25, asym}, {0.15, sweeps}, {0.05, revs}}
	w.pick = func(st *rng.Stream) int {
		u := st.Float64()
		for _, s := range sections[:len(sections)-1] {
			if u < s.share {
				return s.idx[st.Intn(len(s.idx))]
			}
			u -= s.share
		}
		last := sections[len(sections)-1].idx
		return last[st.Intn(len(last))]
	}
}

// gen draws workload inputs from one stream and keeps the first error.
type gen struct {
	st  *rng.Stream
	err error
}

func (g *gen) keep(err error) {
	if err != nil && g.err == nil {
		g.err = err
	}
}

func (g *gen) intIn(lo, hi int) int { return lo + g.st.Intn(hi-lo+1) }

// dims returns n switch sizes spread evenly over [lo, hi]^2 in a
// seeded order: a Kronecker sequence (steps 1/phi and sqrt 2 - 1) from
// a random start, so every prefix covers the square about evenly.
// Sizes drawn this way make the most requested models of one seed cost
// about what those of another seed do, which keeps run-to-run spread
// down.
func (g *gen) dims(n, lo, hi int) (n1, n2 []int) {
	u, v := g.st.Float64(), g.st.Float64()
	width := float64(hi - lo + 1)
	for i := 0; i < n; i++ {
		n1 = append(n1, lo+int(u*width))
		n2 = append(n2, lo+int(v*width))
		u, v = frac(u+0.6180339887498949), frac(v+0.41421356237309515)
	}
	return n1, n2
}

func frac(x float64) float64 { return x - math.Floor(x) }

func (g *gen) in(lo, hi float64) float64 { return lo + (hi-lo)*g.st.Float64() }

// bppKind selects the arrival process of a generated class.
type bppKind int

const (
	poisson bppKind = iota
	pascal
	bernoulli
)

// class draws a class of bandwidth a in the aggregate units xbard takes
// by default, offering about load Erlangs per port of an n1 x n2
// switch. The loads the workloads pass keep blocking between a few
// percent and about 30%.
func (g *gen) class(kind bppKind, a, n1, n2 int, load float64) server.ClassSpec {
	mu := g.in(0.5, 2)
	alpha := load * mu * float64(n1) / (float64(a) * combin.Binom(n1, a))
	c := server.ClassSpec{A: a, Alpha: alpha, Mu: mu}
	switch kind {
	case pascal:
		c.Beta = alpha * g.in(0.2, 1) * float64(a) / float64(min(n1, n2))
	case bernoulli:
		// -alpha/beta is the source population, an integer above
		// max(N1, N2).
		c.Beta = -alpha / float64(max(n1, n2)+1+g.st.Intn(max(n1, n2)))
	}
	return c
}

// twoClass draws the workloads' common model, a=1 Poisson plus a=2
// Pascal, with its loads scaled by load (1 is light: blocking of a few
// to 30%).
func (g *gen) twoClass(n1, n2 int, load float64) server.SwitchSpec {
	return server.SwitchSpec{N1: n1, N2: n2, Classes: []server.ClassSpec{
		g.class(poisson, 1, n1, n2, load*g.in(0.03, 0.12)),
		g.class(pascal, 2, n1, n2, load*g.in(0.005, 0.025)),
	}}
}

// lattice builds a request served off the solver-cache entry of spec
// under alg. The entry key is canonical (%v prints float64 exactly), so
// requests sharing an entry on xbard share it in the replay.
func (g *gen) lattice(ep endpoint, in any, alg string, spec server.SwitchSpec) request {
	sw, err := switchOf(spec)
	g.keep(err)
	return request{ep: ep, in: in, entry: fmt.Sprintf("%s|%dx%d|%v", alg, sw.N1, sw.N2, sw.Classes), alg: alg, sw: sw}
}

// gridRequest draws a 16-point grid over a two-class base switch in
// per-route units, so grid.Engine.SolveDeltas reads the same deltas.
// Each point moves the dimensions, one class's alpha, or the bursty
// class's beta, from small menus so that points share fill groups.
func (g *gen) gridRequest(n1, n2 int) request {
	spec := g.twoClass(n1, n2, 1)
	spec.Units = "route"
	for i := range spec.Classes {
		c := &spec.Classes[i]
		k := combin.Binom(n2, c.A)
		c.Alpha /= k
		c.Beta /= k
	}
	req := &server.GridRequest{SwitchSpec: spec, Weights: []float64{g.in(1, 2), g.in(2, 5)}, Points: make([]server.GridPoint, 16)}
	for i := range req.Points {
		p := &req.Points[i]
		switch g.st.Intn(3) {
		case 0:
			p.N1, p.N2 = g.intIn(8, n1), g.intIn(8, n2)
		case 1:
			c := g.st.Intn(2)
			a := spec.Classes[c].Alpha * [...]float64{0.5, 1.5, 2}[g.st.Intn(3)]
			p.Classes = []server.GridClassDelta{{Class: c, Alpha: &a}}
		default:
			b := spec.Classes[1].Beta * [...]float64{0.5, 2}[g.st.Intn(2)]
			p.Classes = []server.GridClassDelta{{Class: 1, Beta: &b}}
		}
	}
	return request{ep: epGrid, in: req}
}

// scenario draws an analytic variant (empty sim block) of one of the
// corpus disciplines that can run without simulation, cycling through
// them by i.
func (g *gen) scenario(i int) *scenario.Spec {
	s := &scenario.Spec{}
	switch i % 7 {
	case 0:
		s.Discipline = "slotted"
		s.Topology = scenario.Topology{N1: g.intIn(4, 64), N2: g.intIn(4, 64)}
		s.Params.Load = g.in(0.1, 0.95)
	case 1:
		s.Discipline = "clos"
		s.Topology = scenario.Topology{M: g.intIn(1, 8), N: g.intIn(1, 6), R: g.intIn(1, 8)}
		s.Params.Load = g.in(0.1, 0.95)
	case 2:
		s.Discipline = "wdm"
		s.Topology = scenario.Topology{L: g.intIn(1, 6), W: g.intIn(2, 24)}
		s.Params = scenario.Params{Rate: g.in(0.5, 8), CrossRate: g.in(0, 2), Mu: g.in(0.5, 2)}
	case 3:
		s.Discipline = "hotspot"
		s.Topology = scenario.Topology{N1: g.intIn(2, 16), N2: g.intIn(2, 16)}
		s.Params = scenario.Params{Lambda: g.in(1, 20), Mu: g.in(0.5, 2), HotFraction: g.in(0.05, 0.5)}
	case 4:
		s.Discipline = "minnet"
		s.Topology = scenario.Topology{N1: 4 << g.st.Intn(5)}
		s.Params.Load = g.in(0.1, 0.95)
	case 5:
		s.Discipline = "link"
		s.Topology = scenario.Topology{C: g.intIn(8, 48)}
		s.Classes = []scenario.Class{
			{A: 1, Alpha: g.in(2, 10), Mu: 1},
			{A: g.intIn(2, 4), Alpha: g.in(0.5, 3), Beta: g.in(0.01, 0.5), Mu: 1},
		}
	default:
		s.Discipline = "transient"
		s.Topology = scenario.Topology{N1: g.intIn(3, 5), N2: g.intIn(3, 5)}
		s.Classes = []scenario.Class{
			{A: 1, Alpha: g.in(0.2, 1), Mu: 1},
			{A: 2, Alpha: g.in(0.1, 0.5), Mu: 1},
		}
		s.Params = scenario.Params{Class: g.st.Intn(2), Times: []float64{g.in(0.05, 0.5), g.in(0.5, 2), g.in(2, 10)}}
	}
	return s
}

// zipf draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s; it holds the cumulative weights.
type zipf []float64

func newZipf(n int, s float64) zipf {
	z := make(zipf, n)
	total := 0.0
	for k := range z {
		total += math.Pow(float64(k+1), -s)
		z[k] = total
	}
	return z
}

func (z zipf) draw(st *rng.Stream) int {
	return min(sort.SearchFloat64s(z, st.Float64()*z[len(z)-1]), len(z)-1)
}

// due is one open-loop arrival: when it is due, from the start of the
// phase, and which request it sends.
type due struct {
	at  time.Duration
	req int
}

// meanBurst is the mean number of requests per burst.
const meanBurst = 4

// schedule draws the open-loop arrivals of a phase lasting d from the
// phase's schedule stream.
func (w *workload) schedule(phase int, d time.Duration) []due {
	return w.burstSchedule(w.root.Substream(streamID(phase, workers)), d)
}

// burstSchedule draws the open-loop arrivals of one burst phase.
// Bursts arrive as a Poisson process at burstRate/meanBurst per second
// and hold a geometric number of requests with mean meanBurst, so the
// counts per window are Pascal (the paper's peaky BPP traffic). After
// a burst's first request, each further one repeats it with
// probability 1/2.
func (w *workload) burstSchedule(st *rng.Stream, d time.Duration) []due {
	var out []due
	rate := w.burstRate / meanBurst
	for t := st.Exp(rate); t < d.Seconds(); t += st.Exp(rate) {
		at := time.Duration(t * float64(time.Second))
		first := w.pick(st)
		out = append(out, due{at, first})
		for st.Float64() >= 1.0/meanBurst {
			next := first
			if st.Float64() >= 0.5 {
				next = w.pick(st)
			}
			out = append(out, due{at, next})
		}
	}
	return out
}
