// Package network models the application domain of the paper's
// introduction: an all-optical circuit-switching network whose
// intermediate nodes are asynchronous, unbuffered crossbars and whose
// routing decisions live entirely at the periphery (source routing).
// A connection request names its whole path; at each hop it must seize
// one idle input and one idle output of that hop's crossbar, the setup
// is atomic, and a request that finds any hop busy is cleared
// end-to-end — exactly the blocked-calls-cleared discipline of the
// single-switch model, lifted to a path.
//
// Two evaluations are provided:
//
//   - FixedPoint: the reduced-load (Erlang fixed point) approximation
//     in the tradition of Kelly [20]: each switch sees the Poisson
//     load of its routes thinned by the blocking of the other hops,
//     and per-switch blocking comes from the single-switch analytical
//     model (internal/core);
//   - Simulate: an exact event-driven simulation of the whole network.
package network

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"

	"xbar/internal/combin"
	"xbar/internal/core"
	"xbar/internal/eventq"
	"xbar/internal/grid"
	"xbar/internal/rng"
	"xbar/internal/stats"
)

// Dim gives one crossbar's dimensions.
type Dim struct{ N1, N2 int }

// Route is a source-routed path with Poisson connection arrivals.
type Route struct {
	Name string
	// Path lists the switch indices traversed, in order.
	Path []int
	// Rate is the Poisson arrival rate of connection requests.
	Rate float64
	// Mu is the service rate; holding time is exponential with mean
	// 1/Mu (insensitivity extends to general distributions).
	Mu float64
	// Bandwidth is the multi-rate requirement a_r: the number of
	// inputs and outputs seized at EVERY hop. Zero means 1.
	Bandwidth int
}

// bw returns the effective bandwidth (zero value means one).
func (r Route) bw() int {
	if r.Bandwidth == 0 {
		return 1
	}
	return r.Bandwidth
}

// Network is a set of crossbar switches and the routes over them.
type Network struct {
	Switches []Dim
	Routes   []Route
}

// Validate checks structural constraints.
func (n Network) Validate() error {
	if len(n.Switches) == 0 {
		return fmt.Errorf("network: no switches")
	}
	for i, d := range n.Switches {
		if d.N1 < 1 || d.N2 < 1 {
			return fmt.Errorf("network: switch %d is %dx%d", i, d.N1, d.N2)
		}
	}
	if len(n.Routes) == 0 {
		return fmt.Errorf("network: no routes")
	}
	for i, r := range n.Routes {
		if len(r.Path) == 0 {
			return fmt.Errorf("network: route %d has empty path", i)
		}
		for _, s := range r.Path {
			if s < 0 || s >= len(n.Switches) {
				return fmt.Errorf("network: route %d references switch %d of %d", i, s, len(n.Switches))
			}
		}
		seen := make(map[int]bool)
		for _, s := range r.Path {
			if seen[s] {
				return fmt.Errorf("network: route %d visits switch %d twice", i, s)
			}
			seen[s] = true
		}
		if r.Rate <= 0 || r.Mu <= 0 {
			return fmt.Errorf("network: route %d: rate %v, mu %v", i, r.Rate, r.Mu)
		}
		if r.Bandwidth < 0 {
			return fmt.Errorf("network: route %d: bandwidth %d", i, r.Bandwidth)
		}
		for _, s := range r.Path {
			d := n.Switches[s]
			if r.bw() > d.N1 || r.bw() > d.N2 {
				return fmt.Errorf("network: route %d: bandwidth %d exceeds switch %d (%dx%d)",
					i, r.bw(), s, d.N1, d.N2)
			}
		}
	}
	return nil
}

// FPResult is the fixed-point solution.
type FPResult struct {
	// SwitchBlocking[s] is the per-hop blocking of bandwidth-1 traffic
	// at switch s under the reduced-load approximation (kept for the
	// common single-rate case; see ClassBlocking for multi-rate).
	SwitchBlocking []float64
	// ClassBlocking[s][a] is the per-hop blocking of bandwidth-a
	// traffic at switch s, for each bandwidth offered there.
	ClassBlocking []map[int]float64
	// RouteBlocking[i] = 1 - prod over hops of (1 - B_{s, a_i}).
	RouteBlocking []float64
	// SwitchLoad[s] is the thinned offered load (erlangs, in calls) at
	// switch s.
	SwitchLoad []float64
	// Iterations taken to converge.
	Iterations int
	// Grid is the evaluation engine's accounting for the whole run:
	// every per-switch solve of every iteration is one grid point, so
	// the hit rate reports how much of the fixed point's work was
	// shared (symmetric switches within an iteration, switches whose
	// thinned load did not move between iterations).
	Grid grid.Stats
}

// FPConfig parameterizes FixedPointWith.
type FPConfig struct {
	// Tol bounds the largest per-switch blocking change at convergence.
	Tol float64
	// MaxIter guards against oscillation.
	MaxIter int
	// NoMemo switches the evaluation engine to its full-fill fallback:
	// every per-switch solve pays its own lattice fill, as the
	// pre-engine code did. The fixed point's results are bit-identical
	// either way (the grid package's property tests pin both paths to
	// fresh core.Solve); the flag exists for A/B benchmarking and as an
	// escape hatch.
	NoMemo bool
}

// FixedPoint solves the reduced-load approximation by successive
// substitution. tol bounds the largest per-switch blocking change at
// convergence; maxIter guards against oscillation.
func FixedPoint(n Network, tol float64, maxIter int) (*FPResult, error) {
	return FixedPointWith(n, FPConfig{Tol: tol, MaxIter: maxIter})
}

// FixedPointWith is FixedPoint with the full configuration surface.
// Each iteration re-solves every switch under re-thinned loads; the
// solves go through one grid.Engine, so switches that are symmetric
// (identical dimensions and thinned per-class loads — the IEEE
// product (1-b1)(1-b2) is commutative bit-exactly, so symmetric hops
// of a route thin identically) share one lattice fill per iteration,
// and a switch whose load did not move since an earlier iteration
// pays a map lookup instead of a fill.
func FixedPointWith(n Network, cfg FPConfig) (*FPResult, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if cfg.Tol <= 0 {
		return nil, fmt.Errorf("network: tolerance %v", cfg.Tol)
	}
	if cfg.MaxIter < 1 {
		return nil, fmt.Errorf("network: maxIter %d", cfg.MaxIter)
	}
	nS := len(n.Switches)
	// b[s][a] is the hop blocking of bandwidth-a traffic at switch s.
	b := make([]map[int]float64, nS)
	for s := range b {
		b[s] = make(map[int]float64)
	}
	hopB := func(s, a int) float64 { return b[s][a] } // zero until solved
	load := make([]float64, nS)
	classLoad := make([]map[int]float64, nS)
	eng := grid.New(grid.Options{NoMemo: cfg.NoMemo})
	var iter int
	for iter = 1; iter <= cfg.MaxIter; iter++ {
		// Thinned offered loads, split by bandwidth class.
		for s := range load {
			load[s] = 0
			classLoad[s] = make(map[int]float64)
		}
		for _, r := range n.Routes {
			erl := r.Rate / r.Mu
			a := r.bw()
			for _, s := range r.Path {
				thin := 1.0
				for _, s2 := range r.Path {
					if s2 != s {
						thin *= 1 - hopB(s2, a)
					}
				}
				load[s] += erl * thin
				classLoad[s][a] += erl * thin
			}
		}
		// Per-switch multi-class blocking from the single-switch model,
		// batched: the whole iteration is one grid solve.
		newB, err := iterationBlocking(eng, n.Switches, classLoad)
		if err != nil {
			return nil, err
		}
		worst := 0.0
		for s := range newB {
			for a, nb := range newB[s] {
				if diff := math.Abs(nb - b[s][a]); diff > worst {
					worst = diff
				}
			}
			b[s] = newB[s]
		}
		if worst < cfg.Tol {
			break
		}
	}
	if iter > cfg.MaxIter {
		return nil, fmt.Errorf("network: fixed point did not converge in %d iterations", cfg.MaxIter)
	}
	res := &FPResult{
		SwitchBlocking: make([]float64, nS),
		ClassBlocking:  b,
		SwitchLoad:     load,
		RouteBlocking:  make([]float64, len(n.Routes)),
		Iterations:     iter,
		Grid:           eng.Stats(),
	}
	for s := range b {
		res.SwitchBlocking[s] = b[s][1]
	}
	for i, r := range n.Routes {
		pass := 1.0
		for _, s := range r.Path {
			pass *= 1 - hopB(s, r.bw())
		}
		res.RouteBlocking[i] = 1 - pass
	}
	return res, nil
}

// switchModel builds the single-switch model for one crossbar offered
// Poisson traffic split into bandwidth classes (erlangs per class,
// spread uniformly over the class's ordered routes). The bandwidths
// are visited in sorted order — map iteration order would otherwise
// vary the classes' positions between runs and perturb the fill's
// float rounding, breaking run-to-run determinism. Zero-load
// bandwidths are resolved immediately (out[a] = 0); order lists the
// bandwidth behind each model class, and a switch with no loaded
// class yields an empty model (len(order) == 0).
func switchModel(d Dim, classErlangs map[int]float64) (sw core.Switch, order []int, out map[int]float64) {
	out = make(map[int]float64, len(classErlangs))
	sw = core.Switch{N1: d.N1, N2: d.N2}
	bandwidths := make([]int, 0, len(classErlangs))
	for a := range classErlangs {
		bandwidths = append(bandwidths, a)
	}
	sort.Ints(bandwidths)
	for _, a := range bandwidths {
		erl := classErlangs[a]
		if erl <= 0 {
			out[a] = 0
			continue
		}
		routes := combin.Perm(d.N1, a) * combin.Perm(d.N2, a)
		sw.Classes = append(sw.Classes, core.Class{A: a, Alpha: erl / routes, Mu: 1})
		order = append(order, a)
	}
	return sw, order, out
}

// iterationBlocking evaluates one fixed-point iteration's per-switch
// blocking as a single grid solve: equal switch models within the
// iteration (symmetry) and across iterations (stable loads) share one
// lattice fill through the engine. The iteration carries a pprof
// label so `make profile` attributes fixed-point time per phase.
func iterationBlocking(eng *grid.Engine, dims []Dim, classLoad []map[int]float64) ([]map[int]float64, error) {
	newB := make([]map[int]float64, len(dims))
	orders := make([][]int, len(dims))
	var points []core.Switch
	var slots []int // points[k] models switch slots[k]
	for s, d := range dims {
		sw, order, out := switchModel(d, classLoad[s])
		newB[s] = out
		orders[s] = order
		if len(order) > 0 {
			points = append(points, sw)
			slots = append(slots, s)
		}
	}
	if len(points) == 0 {
		return newB, nil
	}
	var results []*core.Result
	var err error
	pprof.Do(context.Background(), pprof.Labels("xbar_phase", "fixedpoint_iteration"), func(context.Context) {
		results, err = eng.Solve(points)
	})
	if err != nil {
		return nil, err
	}
	for k, res := range results {
		s := slots[k]
		for i, a := range orders[s] {
			newB[s][a] = res.Blocking[i]
		}
	}
	return newB, nil
}

// SimConfig parameterizes a network simulation.
type SimConfig struct {
	Seed    uint64
	Warmup  float64
	Horizon float64
	Batches int
}

// SimResult reports simulated end-to-end measures.
type SimResult struct {
	// RouteBlocking[i] is the measured end-to-end blocking of route i
	// (call congestion = time congestion by PASTA).
	RouteBlocking []stats.CI
	// Offered and Blocked count requests per route.
	Offered, Blocked []int64
	// Events is the number of processed events.
	Events int64
}

type netDeparture struct {
	route int
	// ports holds, hop by hop, the bandwidth input ports and then the
	// bandwidth output ports the connection seized; it goes back to
	// the route's free sets on departure.
	ports []int
}

// sampleDistinct fills out with a distinct uniform indices from [0, n)
// by rejection (a << n in every sensible configuration).
func sampleDistinct(stream *rng.Stream, n, a int, out []int) {
	for i := 0; i < a; i++ {
	redraw:
		for {
			v := stream.Intn(n)
			for j := 0; j < i; j++ {
				if out[j] == v {
					continue redraw
				}
			}
			out[i] = v
			break
		}
	}
}

// Simulate runs the event-driven network simulation.
func Simulate(n Network, cfg SimConfig) (*SimResult, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	win, err := stats.NewWindow(cfg.Warmup, cfg.Horizon, cfg.Batches)
	if err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	batches := win.Batches()
	stream := rng.NewStream(cfg.Seed)
	busyIn := make([][]bool, len(n.Switches))
	busyOut := make([][]bool, len(n.Switches))
	for s, d := range n.Switches {
		busyIn[s] = make([]bool, d.N1)
		busyOut[s] = make([]bool, d.N2)
	}
	// Next Poisson arrival per route.
	nextArr := make([]float64, len(n.Routes))
	for i, r := range n.Routes {
		nextArr[i] = stream.Exp(r.Rate)
	}
	// A departure hands its connection's port set back to its route's
	// free sets, and a set is made only when none is free: the event
	// loop stops allocating once each route's connections have peaked.
	free := make([][][]int, len(n.Routes))
	width := 0
	for _, r := range n.Routes {
		width = max(width, 2*r.bw()*len(r.Path))
	}
	scratch := make([]int, width)
	var deps eventq.Queue[netDeparture]

	end := win.End()
	offered := make([][]int64, len(n.Routes))
	blocked := make([][]int64, len(n.Routes))
	for i := range n.Routes {
		offered[i] = make([]int64, batches)
		blocked[i] = make([]int64, batches)
	}

	var events int64
	now := 0.0
	for {
		t := math.Inf(1)
		kind := -1
		for i := range nextArr {
			if nextArr[i] < t {
				t = nextArr[i]
				kind = i
			}
		}
		if at, ok := deps.PeekTime(); ok && at < t {
			t = at
			kind = -2
		}
		if t >= end {
			break
		}
		now = t
		events++
		if kind == -2 {
			_, d := deps.Pop()
			r := n.Routes[d.route]
			a := r.bw()
			for h, s := range r.Path {
				hop := d.ports[2*a*h : 2*a*(h+1)]
				for _, p := range hop[:a] {
					busyIn[s][p] = false
				}
				for _, p := range hop[a:] {
					busyOut[s][p] = false
				}
			}
			free[d.route] = append(free[d.route], d.ports)
			continue
		}
		// Arrival on route kind: seize bandwidth distinct inputs and
		// outputs at every hop, atomically or not at all.
		r := n.Routes[kind]
		a := r.bw()
		nextArr[kind] = now + stream.Exp(r.Rate)
		if b := win.Of(now); b >= 0 {
			offered[kind][b]++
		}
		ports := scratch[:2*a*len(r.Path)]
		ok := true
		for h, s := range r.Path {
			ins, outs := ports[2*a*h:2*a*h+a], ports[2*a*h+a:2*a*(h+1)]
			sampleDistinct(stream, n.Switches[s].N1, a, ins)
			sampleDistinct(stream, n.Switches[s].N2, a, outs)
			for i := 0; i < a; i++ {
				if busyIn[s][ins[i]] || busyOut[s][outs[i]] {
					ok = false
				}
			}
		}
		if !ok {
			if b := win.Of(now); b >= 0 {
				blocked[kind][b]++
			}
			continue
		}
		for h, s := range r.Path {
			for i := 0; i < a; i++ {
				busyIn[s][ports[2*a*h+i]] = true
				busyOut[s][ports[2*a*h+a+i]] = true
			}
		}
		var held []int
		if k := len(free[kind]) - 1; k >= 0 {
			held, free[kind] = free[kind][k], free[kind][:k]
		} else {
			held = make([]int, len(ports))
		}
		copy(held, ports)
		deps.Push(now+stream.Exp(r.Mu), netDeparture{route: kind, ports: held})
	}

	res := &SimResult{
		RouteBlocking: make([]stats.CI, len(n.Routes)),
		Offered:       make([]int64, len(n.Routes)),
		Blocked:       make([]int64, len(n.Routes)),
		Events:        events,
	}
	for i := range n.Routes {
		var ratios []float64
		for b := 0; b < batches; b++ {
			res.Offered[i] += offered[i][b]
			res.Blocked[i] += blocked[i][b]
			if offered[i][b] > 0 {
				ratios = append(ratios, float64(blocked[i][b])/float64(offered[i][b]))
			}
		}
		res.RouteBlocking[i] = stats.BatchCI(ratios, 0.95)
	}
	return res, nil
}
