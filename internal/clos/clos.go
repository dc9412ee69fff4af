// Package clos implements a three-stage Clos circuit-switching network
// C(m, n, r) — r ingress switches of size n x m, m middle switches of
// size r x r, and r egress switches of size m x n — the classical
// answer to the crossbar's O(N^2) crosspoint growth and the concrete
// form of the "multi-stage networks" the paper defers to future work.
//
// Three evaluations are provided:
//
//   - the Clos strict-sense nonblocking condition m >= 2n - 1, as both
//     a predicate and a simulation-verified theorem;
//   - Lee's link-independence approximation of internal blocking;
//   - an exact event-driven simulation with pluggable middle-stage
//     routing policies.
//
// Crosspoint accounting quantifies the trade the introduction
// discusses: a Clos network reaches N = n r ports with
// 2 n m r + m r^2 crosspoints against the crossbar's N^2.
package clos

import (
	"fmt"
	"math"

	"xbar/internal/eventq"
	"xbar/internal/rng"
	"xbar/internal/stats"
)

// Network describes a symmetric three-stage Clos network C(m, n, r).
type Network struct {
	// M is the number of middle-stage switches (paths per ingress /
	// egress pair).
	M int
	// N is the number of external ports per ingress (and egress)
	// switch.
	N int
	// R is the number of ingress (and egress) switches.
	R int
}

// Validate checks the dimensions.
func (c Network) Validate() error {
	if c.M < 1 || c.N < 1 || c.R < 1 {
		return fmt.Errorf("clos: C(m=%d, n=%d, r=%d): all dimensions must be >= 1", c.M, c.N, c.R)
	}
	return nil
}

// Ports returns the total number of external input ports N = n r.
func (c Network) Ports() int { return c.N * c.R }

// StrictSenseNonblocking reports the Clos condition m >= 2n - 1: a
// request between a free ingress port and a free egress port can
// always be routed, no matter the existing circuits.
func (c Network) StrictSenseNonblocking() bool { return c.M >= 2*c.N-1 }

// Crosspoints returns the total crosspoint count
// 2 n m r + m r^2 of the Clos network.
func (c Network) Crosspoints() int {
	return 2*c.N*c.M*c.R + c.M*c.R*c.R
}

// CrossbarCrosspoints returns the crosspoints of the equivalent
// single-stage (n r) x (n r) crossbar.
func (c Network) CrossbarCrosspoints() int {
	p := c.Ports()
	return p * p
}

// LeeBlocking returns Lee's approximation of the internal blocking
// probability for a fresh request when each external input carries a
// erlangs (0 <= a <= 1): each of the m two-link paths is independently
// busy with probability 1 - (1-p)^2, p = a n / m,
//
//	B = (1 - (1-p)^2)^m .
//
// Lee's independence assumption ignores that a switch's n circuits
// occupy n DISTINCT links (strong negative correlation), so against a
// path-searching policy the formula is a pessimistic bound — often by
// orders of magnitude at moderate load, as the simulation comparison
// in the tests shows. It remains the standard quick sizing rule and is
// exact in its own random-occupancy model.
func (c Network) LeeBlocking(a float64) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if a < 0 || a > 1 {
		return 0, fmt.Errorf("clos: per-input load %v outside [0,1]", a)
	}
	p := a * float64(c.N) / float64(c.M)
	if p > 1 {
		p = 1
	}
	q := 1 - (1-p)*(1-p)
	return math.Pow(q, float64(c.M)), nil
}

// Policy selects the middle switch for a new circuit.
type Policy int

const (
	// RandomAvailable picks uniformly among middle switches with both
	// links free; blocks only when none exists.
	RandomAvailable Policy = iota
	// FirstFit always scans middle switches in index order — the
	// packing policy that keeps later switches free.
	FirstFit
	// RandomTry draws one middle switch blindly and blocks if either
	// of its links is busy — the cheapest (single-probe) control.
	RandomTry
)

func (p Policy) String() string {
	switch p {
	case RandomAvailable:
		return "random-available"
	case FirstFit:
		return "first-fit"
	case RandomTry:
		return "random-try"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// SimConfig parameterizes a Clos simulation.
type SimConfig struct {
	// PerInputLoad is the offered erlangs per external input port; the
	// network-wide Poisson arrival rate is PerInputLoad * n * r * Mu.
	PerInputLoad float64
	// Mu is the circuit teardown rate.
	Mu float64
	// Policy is the middle-stage routing policy.
	Policy Policy
	// Seed, Warmup, Horizon, Batches as in the other simulators.
	Seed    uint64
	Warmup  float64
	Horizon float64
	Batches int
}

// Result reports a Clos simulation.
type Result struct {
	// CallBlocking is the fraction of offered circuits rejected for
	// any reason (no free ingress/egress port, or internal blocking).
	CallBlocking stats.CI
	// InternalBlocking is the fraction of offered circuits that had
	// free external ports on both sides but no middle path — the
	// quantity Lee approximates and the Clos theorem bounds.
	InternalBlocking stats.CI
	// LinkUtilization is the time-average busy fraction of
	// ingress-to-middle links.
	LinkUtilization float64
	// Offered counts measured arrivals; InternallyBlocked counts the
	// internal-blocking events among them.
	Offered, InternallyBlocked int64
	// Events counts processed events.
	Events int64
}

type circuit struct {
	in, out int // ingress and egress switch indices
	mid     int
	portIn  int // ingress external port
	portOut int
}

// Simulate runs the event-driven Clos network: circuits arrive Poisson
// between a uniform ingress port and a uniform egress port, hold both
// external ports plus one two-link middle path for an exponential
// time, and are cleared when no path exists under the chosen policy.
func Simulate(c Network, cfg SimConfig) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if cfg.PerInputLoad < 0 || cfg.PerInputLoad > 1 {
		return nil, fmt.Errorf("clos: per-input load %v outside [0,1]", cfg.PerInputLoad)
	}
	if cfg.Mu <= 0 {
		return nil, fmt.Errorf("clos: mu = %v", cfg.Mu)
	}
	win, err := stats.NewWindow(cfg.Warmup, cfg.Horizon, cfg.Batches)
	if err != nil {
		return nil, fmt.Errorf("clos: %w", err)
	}
	batches := win.Batches()

	stream := rng.NewStream(cfg.Seed)
	// Link occupancy: inLink[i][k] = ingress i to middle k;
	// outLink[k][j] = middle k to egress j.
	inLink := make([][]bool, c.R)
	outLink := make([][]bool, c.M)
	for i := range inLink {
		inLink[i] = make([]bool, c.M)
	}
	for k := range outLink {
		outLink[k] = make([]bool, c.R)
	}
	// External port occupancy per ingress/egress switch.
	portIn := make([][]bool, c.R)
	portOut := make([][]bool, c.R)
	for i := 0; i < c.R; i++ {
		portIn[i] = make([]bool, c.N)
		portOut[i] = make([]bool, c.N)
	}
	busyLinks := 0

	totalPorts := c.Ports()
	arrivalRate := cfg.PerInputLoad * float64(totalPorts) * cfg.Mu
	if arrivalRate <= 0 {
		return nil, fmt.Errorf("clos: zero arrival rate")
	}

	end, batchLen := win.End(), win.BatchLen()
	offered := make([]int64, batches)
	blockedAll := make([]int64, batches)
	blockedInternal := make([]int64, batches)
	eligible := make([]int64, batches) // arrivals with free external ports
	utilArea := make([]float64, batches)

	var deps eventq.Queue[circuit]
	nextArr := stream.Exp(arrivalRate)
	now := 0.0
	var events int64
	advance := func(t float64) {
		win.Add(utilArea, now, t, float64(busyLinks)/float64(c.R*c.M))
		now = t
	}

	scratch := make([]int, 0, c.M)
	for {
		t := nextArr
		isDep := false
		if at, ok := deps.PeekTime(); ok && at < t {
			t = at
			isDep = true
		}
		if t >= end {
			advance(end)
			break
		}
		advance(t)
		events++
		if isDep {
			_, d := deps.Pop()
			inLink[d.in][d.mid] = false
			outLink[d.mid][d.out] = false
			portIn[d.in][d.portIn] = false
			portOut[d.out][d.portOut] = false
			busyLinks--
			continue
		}
		nextArr = now + stream.Exp(arrivalRate)
		b := win.Of(now)
		if b >= 0 {
			offered[b]++
		}
		// Uniform external input and output ports.
		pin := stream.Intn(totalPorts)
		pout := stream.Intn(totalPorts)
		i, pi := pin/c.N, pin%c.N
		j, pj := pout/c.N, pout%c.N
		if portIn[i][pi] || portOut[j][pj] {
			if b >= 0 {
				blockedAll[b]++
			}
			continue
		}
		if b >= 0 {
			eligible[b]++
		}
		// Middle-stage selection.
		mid := -1
		switch cfg.Policy {
		case RandomAvailable:
			scratch = scratch[:0]
			for k := 0; k < c.M; k++ {
				if !inLink[i][k] && !outLink[k][j] {
					scratch = append(scratch, k)
				}
			}
			if len(scratch) > 0 {
				mid = scratch[stream.Intn(len(scratch))]
			}
		case FirstFit:
			for k := 0; k < c.M; k++ {
				if !inLink[i][k] && !outLink[k][j] {
					mid = k
					break
				}
			}
		case RandomTry:
			k := stream.Intn(c.M)
			if !inLink[i][k] && !outLink[k][j] {
				mid = k
			}
		default:
			return nil, fmt.Errorf("clos: unknown policy %v", cfg.Policy)
		}
		if mid < 0 {
			if b >= 0 {
				blockedAll[b]++
				blockedInternal[b]++
			}
			continue
		}
		inLink[i][mid] = true
		outLink[mid][j] = true
		portIn[i][pi] = true
		portOut[j][pj] = true
		busyLinks++
		deps.Push(now+stream.Exp(cfg.Mu), circuit{
			in: i, out: j, mid: mid, portIn: pi, portOut: pj,
		})
	}

	res := &Result{Events: events}
	var callB, intB []float64
	var utilB []float64
	for b := 0; b < batches; b++ {
		res.Offered += offered[b]
		res.InternallyBlocked += blockedInternal[b]
		if offered[b] > 0 {
			callB = append(callB, float64(blockedAll[b])/float64(offered[b]))
		}
		if eligible[b] > 0 {
			intB = append(intB, float64(blockedInternal[b])/float64(eligible[b]))
		}
		utilB = append(utilB, utilArea[b]/batchLen)
	}
	res.CallBlocking = stats.BatchCI(callB, 0.95)
	res.InternalBlocking = stats.BatchCI(intB, 0.95)
	res.LinkUtilization = stats.BatchMeans(utilB, 0.95).Mean
	return res, nil
}
