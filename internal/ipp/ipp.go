// Package ipp implements the Interrupted Poisson Process — the
// canonical "real" bursty source of teletraffic practice (Kuczura's
// overflow model, in the lineage of Wilkinson [33] that the paper
// cites as the motivation for peaky traffic) — and the moment-matching
// step that approximates it by a BPP stream.
//
// An IPP alternates between an ON phase (exponential sojourn, Poisson
// arrivals at rate Lambda) and a silent OFF phase (exponential
// sojourn). It is bursty by construction rather than by a
// state-dependent rate law, so it is exactly the kind of traffic the
// BPP family is meant to approximate: match the mean and the
// peakedness (variance-to-mean of busy servers on an infinite group)
// and compare blocking. The package provides the analytics, the
// matching, and a full-fabric crossbar simulator driven by an IPP so
// the approximation can be judged against the paper's model.
package ipp

import (
	"fmt"
	"math"

	"xbar/internal/combin"
	"xbar/internal/core"
	"xbar/internal/dist"
	"xbar/internal/eventq"
	"xbar/internal/rng"
	"xbar/internal/stats"
)

// Source is an interrupted Poisson process.
type Source struct {
	// Lambda is the arrival rate during the ON phase.
	Lambda float64
	// OnToOff is the rate of leaving ON (mean ON duration 1/OnToOff).
	OnToOff float64
	// OffToOn is the rate of leaving OFF (mean OFF duration 1/OffToOn).
	OffToOn float64
}

// Validate checks the rates.
func (s Source) Validate() error {
	if s.Lambda <= 0 || s.OnToOff <= 0 || s.OffToOn <= 0 {
		return fmt.Errorf("ipp: rates must be positive: %+v", s)
	}
	return nil
}

// POn returns the stationary probability of the ON phase.
func (s Source) POn() float64 { return s.OffToOn / (s.OnToOff + s.OffToOn) }

// MeanRate returns the long-run arrival rate Lambda * P(on).
func (s Source) MeanRate() float64 { return s.Lambda * s.POn() }

// Peakedness returns the variance-to-mean ratio of the number of busy
// servers when the source is offered to an infinite server group with
// service rate mu (Kuczura):
//
//	Z = 1 + Lambda * c1 / ((c1 + c2) (mu + c1 + c2)),
//
// with c1 = OnToOff, c2 = OffToOn. Z > 1 always: an IPP is peaky.
func (s Source) Peakedness(mu float64) float64 {
	c1, c2 := s.OnToOff, s.OffToOn
	return 1 + s.Lambda*c1/((c1+c2)*(mu+c1+c2))
}

// FitBPP returns the BPP source with the same infinite-server mean and
// peakedness under service rate mu — the paper's recipe for feeding
// real bursty traffic into the product-form model.
func (s Source) FitBPP(mu float64) (dist.BPP, error) {
	if err := s.Validate(); err != nil {
		return dist.BPP{}, err
	}
	m := s.MeanRate() / mu
	z := s.Peakedness(mu)
	return dist.FitMeanPeakedness(m, z, mu)
}

// Design builds an IPP with the given mean busy-server count m > 0 and
// peakedness z > 1 under service rate mu, using a symmetric phase
// split (equal mean ON and OFF sojourns), for which
//
//	c1 = c2 = c,  Lambda = 2 m mu,  Z = 1 + Lambda / (2 (mu + 2c)),
//
// so c is determined by z. The symmetric split reaches any
// 1 < z < 1 + m (tighter bursts need an asymmetric split).
func Design(m, z, mu float64) (Source, error) {
	if m <= 0 || z <= 1 || mu <= 0 {
		return Source{}, fmt.Errorf("ipp: Design(m=%v, z=%v, mu=%v): need m>0, z>1, mu>0", m, z, mu)
	}
	lambda := 2 * m * mu
	denom := lambda/(2*(z-1)) - mu
	if denom <= 0 {
		return Source{}, fmt.Errorf("ipp: Design: z=%v unreachable at m=%v (needs z < 1 + m)", z, m)
	}
	c := denom / 2
	return Source{Lambda: lambda, OnToOff: c, OffToOn: c}, nil
}

// Result reports a crossbar-under-IPP simulation.
type Result struct {
	// TimeNonBlocking estimates the probability a particular route is
	// idle (Rao-Blackwellized over occupancy).
	TimeNonBlocking stats.CI
	// CallBlocking is the fraction of arrivals cleared.
	CallBlocking stats.CI
	// Concurrency is the time-average number of connections.
	Concurrency stats.CI
	// Offered counts arrivals in the measured window.
	Offered int64
	// Events counts processed events.
	Events int64
}

// SimulateCrossbar drives an N1 x N2 crossbar with a single-rate
// (a = 1) IPP source: arrivals pick a uniform input and output and are
// cleared if either is busy; holding times are exponential with rate
// mu. It is the ground truth the BPP approximation is judged against.
func SimulateCrossbar(n1, n2 int, src Source, mu float64, cfg SimConfig) (*Result, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	if n1 < 1 || n2 < 1 {
		return nil, fmt.Errorf("ipp: %dx%d crossbar", n1, n2)
	}
	if mu <= 0 {
		return nil, fmt.Errorf("ipp: mu = %v", mu)
	}
	win, err := stats.NewWindow(cfg.Warmup, cfg.Horizon, cfg.Batches)
	if err != nil {
		return nil, fmt.Errorf("ipp: %w", err)
	}
	batches := win.Batches()

	stream := rng.NewStream(cfg.Seed)
	busyIn := make([]bool, n1)
	busyOut := make([]bool, n2)
	occ := 0
	on := stream.Float64() < src.POn() // start in stationary phase mix

	end, batchLen := win.End(), win.BatchLen()
	rbArea := make([]float64, batches)
	kArea := make([]float64, batches)
	offered := make([]int64, batches)
	blocked := make([]int64, batches)

	// Event clocks: next arrival (only meaningful when ON), next phase
	// flip, and a departure heap.
	var deps eventq.Queue[departure]
	nextFlip := 0.0
	if on {
		nextFlip = stream.Exp(src.OnToOff)
	} else {
		nextFlip = stream.Exp(src.OffToOn)
	}
	nextArr := math.Inf(1)
	if on {
		nextArr = stream.Exp(src.Lambda)
	}

	now := 0.0
	var events int64
	advance := func(t float64) {
		rb := float64(n1-occ) * float64(n2-occ) / (float64(n1) * float64(n2))
		win.Add(rbArea, now, t, rb)
		win.Add(kArea, now, t, float64(occ))
		now = t
	}

	for {
		t := nextFlip
		kind := 0 // 0 flip, 1 arrival, 2 departure
		if nextArr < t {
			t, kind = nextArr, 1
		}
		if at, ok := deps.PeekTime(); ok && at < t {
			t, kind = at, 2
		}
		if t >= end {
			advance(end)
			break
		}
		advance(t)
		events++
		switch kind {
		case 0:
			on = !on
			if on {
				nextFlip = now + stream.Exp(src.OnToOff)
				nextArr = now + stream.Exp(src.Lambda)
			} else {
				nextFlip = now + stream.Exp(src.OffToOn)
				nextArr = math.Inf(1)
			}
		case 1:
			nextArr = now + stream.Exp(src.Lambda)
			if b := win.Of(now); b >= 0 {
				offered[b]++
			}
			in := stream.Intn(n1)
			out := stream.Intn(n2)
			if busyIn[in] || busyOut[out] {
				if b := win.Of(now); b >= 0 {
					blocked[b]++
				}
				continue
			}
			busyIn[in] = true
			busyOut[out] = true
			occ++
			deps.Push(now+stream.Exp(mu), departure{in: in, out: out})
		case 2:
			_, d := deps.Pop()
			busyIn[d.in] = false
			busyOut[d.out] = false
			occ--
		}
	}

	res := &Result{Events: events}
	rbB := make([]float64, batches)
	kB := make([]float64, batches)
	var ratios []float64
	for b := 0; b < batches; b++ {
		rbB[b] = rbArea[b] / batchLen
		kB[b] = kArea[b] / batchLen
		res.Offered += offered[b]
		if offered[b] > 0 {
			ratios = append(ratios, float64(blocked[b])/float64(offered[b]))
		}
	}
	res.TimeNonBlocking = stats.BatchMeans(rbB, 0.95)
	res.Concurrency = stats.BatchMeans(kB, 0.95)
	res.CallBlocking = stats.BatchCI(ratios, 0.95)
	return res, nil
}

// SimConfig parameterizes SimulateCrossbar.
type SimConfig struct {
	Seed    uint64
	Warmup  float64
	Horizon float64
	Batches int
}

type departure struct{ in, out int }

// BPPApprox solves the crossbar analytically with the fitted BPP in
// per-route units, returning the approximation the paper's model would
// give for this IPP.
func BPPApprox(n1, n2 int, src Source, mu float64) (*core.Result, error) {
	b, err := src.FitBPP(mu)
	if err != nil {
		return nil, err
	}
	routes := combin.Perm(n1, 1) * combin.Perm(n2, 1)
	sw := core.Switch{N1: n1, N2: n2, Classes: []core.Class{{
		Name: "ipp-fit", A: 1, Alpha: b.Alpha / routes, Beta: b.Beta / routes, Mu: mu,
	}}}
	return core.Solve(sw)
}
