// Package wdm models wavelength-division multiplexed all-optical
// paths — the transmission layer beneath the paper's optical crossbar
// vision. A lightpath crosses L links, each carrying W wavelengths.
// Without wavelength converters at intermediate nodes, the SAME
// wavelength index must be idle on every hop (the wavelength
// continuity constraint, the optical analogue of the paper's
// "no buffering, no conversion at intermediate nodes" stance); with
// converters, each hop independently needs any free wavelength and
// every link behaves as a W-server Erlang loss group.
//
// The package provides the two classical analytical treatments — the
// per-link Erlang-B bound for converter-equipped paths and the
// Barry–Humblet independence approximation for continuity-constrained
// paths — plus an exact event-driven simulator with first-fit and
// random wavelength assignment, so the conversion gain and the
// assignment-policy gap can be measured rather than assumed.
package wdm

import (
	"fmt"
	"math"

	"xbar/internal/eventq"
	"xbar/internal/floats"
	"xbar/internal/link"
	"xbar/internal/rng"
	"xbar/internal/stats"
)

// Path is a chain of L links with W wavelengths each, offered one
// Poisson stream of lightpath requests end to end plus independent
// Poisson cross-traffic on each link.
type Path struct {
	// L is the number of hops.
	L int
	// W is the number of wavelengths per link.
	W int
	// Rate is the Poisson arrival rate of end-to-end requests.
	Rate float64
	// CrossRate is the arrival rate of single-hop cross-traffic on
	// each link (independent per link), competing for wavelengths.
	CrossRate float64
	// Mu is the teardown rate of every circuit.
	Mu float64
}

// Validate checks the path.
func (p Path) Validate() error {
	if p.L < 1 || p.W < 1 {
		return fmt.Errorf("wdm: path needs L >= 1, W >= 1, got L=%d W=%d", p.L, p.W)
	}
	if p.Rate <= 0 || p.Mu <= 0 {
		return fmt.Errorf("wdm: rate %v, mu %v", p.Rate, p.Mu)
	}
	if p.CrossRate < 0 {
		return fmt.Errorf("wdm: negative cross rate %v", p.CrossRate)
	}
	return nil
}

// LinkUtilization returns the approximate busy fraction p of one
// wavelength on one link, from the per-link carried load under an
// Erlang-B thinning of both streams (used by the analytical
// approximations).
func (p Path) LinkUtilization() float64 {
	offered := (p.Rate + p.CrossRate) / p.Mu
	b := link.ErlangB(p.W, offered)
	return offered * (1 - b) / float64(p.W)
}

// ConversionBlocking returns the end-to-end blocking of a
// converter-equipped path under the standard independence
// (reduced-load-free, single pass) approximation: each link blocks a
// request with its Erlang-B probability, independently,
//
//	B = 1 - (1 - E_B(W, rho_link))^L .
func (p Path) ConversionBlocking() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	rho := (p.Rate + p.CrossRate) / p.Mu
	bl := link.ErlangB(p.W, rho)
	return 1 - math.Pow(1-bl, float64(p.L)), nil
}

// ContinuityBlocking returns the Barry–Humblet independence
// approximation for a path WITHOUT converters: a given wavelength is
// free on one link with probability 1-p (p the link utilization), so
// it is free end-to-end with probability (1-p)^L, and the request
// blocks when no wavelength survives:
//
//	B = (1 - (1-p)^L)^W .
func (p Path) ContinuityBlocking() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	u := p.LinkUtilization()
	free := math.Pow(1-u, float64(p.L))
	return math.Pow(1-free, float64(p.W)), nil
}

// Assignment is the wavelength selection policy for continuity paths.
type Assignment int

const (
	// FirstFit picks the lowest-indexed wavelength free on every hop —
	// the packing policy that concentrates load on low indices.
	FirstFit Assignment = iota
	// RandomFit picks uniformly among the end-to-end free wavelengths.
	RandomFit
)

func (a Assignment) String() string {
	switch a {
	case FirstFit:
		return "first-fit"
	case RandomFit:
		return "random-fit"
	default:
		return fmt.Sprintf("Assignment(%d)", int(a))
	}
}

// SimConfig parameterizes a simulation run.
type SimConfig struct {
	// Converters, when true, relaxes wavelength continuity: each hop
	// independently uses any free wavelength.
	Converters bool
	// Assignment selects the wavelength policy (continuity mode; with
	// converters each hop is assigned independently by the same rule).
	Assignment Assignment
	Seed       uint64
	Warmup     float64
	Horizon    float64
	Batches    int
}

// Result reports a simulation.
type Result struct {
	// EndToEndBlocking is the blocking of the full-path stream.
	EndToEndBlocking stats.CI
	// CrossBlocking is the blocking of the single-hop cross-traffic
	// (averaged over links).
	CrossBlocking stats.CI
	// Utilization is the time-average busy fraction of all
	// wavelength-link pairs.
	Utilization float64
	// Offered counts measured end-to-end requests.
	Offered int64
	// Events counts processed events.
	Events int64
}

type teardown struct {
	// lambdas is an end-to-end circuit's wavelength on each link,
	// handed back to the free sets on teardown; nil for a cross
	// circuit, which holds wavelength w on link l.
	lambdas []int
	l, w    int
}

// Simulate runs the path at event level.
func Simulate(p Path, cfg SimConfig) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	win, err := stats.NewWindow(cfg.Warmup, cfg.Horizon, cfg.Batches)
	if err != nil {
		return nil, fmt.Errorf("wdm: %w", err)
	}
	batches := win.Batches()
	if cfg.Assignment != FirstFit && cfg.Assignment != RandomFit {
		return nil, fmt.Errorf("wdm: unknown assignment %v", cfg.Assignment)
	}

	stream := rng.NewStream(cfg.Seed)
	// busy[l][w]: wavelength w on link l in use.
	busy := make([][]bool, p.L)
	for l := range busy {
		busy[l] = make([]bool, p.W)
	}
	busyCount := 0

	end, batchLen := win.End(), win.BatchLen()
	type counts struct{ offered, blocked int64 }
	e2e := make([]counts, batches)
	cross := make([]counts, batches)
	utilArea := make([]float64, batches)

	// A teardown hands its circuit's wavelength set back to free, and
	// a set is made only when none is free: the event loop stops
	// allocating once the number of circuits up has peaked.
	var free [][]int
	lambdas := make([]int, p.L)
	var deps eventq.Queue[teardown]
	now := 0.0
	var events int64
	nextE2E := stream.Exp(p.Rate)
	nextCross := math.Inf(1)
	if p.CrossRate > 0 {
		nextCross = stream.Exp(p.CrossRate * float64(p.L))
	}
	advance := func(t float64) {
		win.Add(utilArea, now, t, float64(busyCount)/float64(p.L*p.W))
		now = t
	}

	freeScratch := make([]int, 0, p.W)
	pickWavelength := func(l int) int {
		// One hop, any free wavelength under the assignment rule.
		freeScratch = freeScratch[:0]
		for w := 0; w < p.W; w++ {
			if !busy[l][w] {
				freeScratch = append(freeScratch, w)
			}
		}
		if len(freeScratch) == 0 {
			return -1
		}
		if cfg.Assignment == FirstFit {
			return freeScratch[0]
		}
		return freeScratch[stream.Intn(len(freeScratch))]
	}

	for {
		t := nextE2E
		kind := 0 // 0 e2e arrival, 1 cross arrival, 2 teardown
		if nextCross < t {
			t, kind = nextCross, 1
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
		case 2:
			_, d := deps.Pop()
			if d.lambdas == nil {
				busy[d.l][d.w] = false
				busyCount--
				continue
			}
			for l, w := range d.lambdas {
				busy[l][w] = false
			}
			busyCount -= p.L
			free = append(free, d.lambdas)
		case 1:
			nextCross = now + stream.Exp(p.CrossRate*float64(p.L))
			l := stream.Intn(p.L)
			b := win.Of(now)
			if b >= 0 {
				cross[b].offered++
			}
			w := pickWavelength(l)
			if w < 0 {
				if b >= 0 {
					cross[b].blocked++
				}
				continue
			}
			busy[l][w] = true
			busyCount++
			deps.Push(now+stream.Exp(p.Mu), teardown{l: l, w: w})
		case 0:
			nextE2E = now + stream.Exp(p.Rate)
			b := win.Of(now)
			if b >= 0 {
				e2e[b].offered++
			}
			ok := true
			if cfg.Converters {
				// Per-hop independent assignment; the setup is atomic,
				// so tentative marks are rolled back on failure.
				marked := 0
				for l := 0; l < p.L; l++ {
					w := pickWavelength(l)
					if w < 0 {
						ok = false
						break
					}
					lambdas[l] = w
					busy[l][w] = true
					marked++
				}
				if !ok {
					for l := 0; l < marked; l++ {
						busy[l][lambdas[l]] = false
					}
				}
			} else {
				// Continuity: wavelength free on every hop.
				freeScratch = freeScratch[:0]
				for w := 0; w < p.W; w++ {
					freeAll := true
					for l := 0; l < p.L; l++ {
						if busy[l][w] {
							freeAll = false
							break
						}
					}
					if freeAll {
						freeScratch = append(freeScratch, w)
					}
				}
				if len(freeScratch) == 0 {
					ok = false
				} else {
					var w int
					if cfg.Assignment == FirstFit {
						w = freeScratch[0]
					} else {
						w = freeScratch[stream.Intn(len(freeScratch))]
					}
					for l := 0; l < p.L; l++ {
						lambdas[l] = w
						busy[l][w] = true
					}
				}
			}
			if !ok {
				if b >= 0 {
					e2e[b].blocked++
				}
				continue
			}
			busyCount += p.L
			var held []int
			if k := len(free) - 1; k >= 0 {
				held, free = free[k], free[:k]
			} else {
				held = make([]int, p.L)
			}
			copy(held, lambdas)
			deps.Push(now+stream.Exp(p.Mu), teardown{lambdas: held})
		}
	}

	ratioCI := func(cs []counts) stats.CI {
		var ratios []float64
		for _, c := range cs {
			if c.offered > 0 {
				ratios = append(ratios, float64(c.blocked)/float64(c.offered))
			}
		}
		return stats.BatchCI(ratios, 0.95)
	}
	utilB := make([]float64, batches)
	var offered int64
	for b := 0; b < batches; b++ {
		utilB[b] = utilArea[b] / batchLen
		offered += e2e[b].offered
	}
	return &Result{
		EndToEndBlocking: ratioCI(e2e),
		CrossBlocking:    ratioCI(cross),
		Utilization:      stats.BatchMeans(utilB, 0.95).Mean,
		Offered:          offered,
		Events:           events,
	}, nil
}

// ConversionGain returns the ratio of continuity-constrained blocking
// to converter-equipped blocking under the analytical approximations —
// the classical measure of what converters buy.
func ConversionGain(p Path) (float64, error) {
	nc, err := p.ContinuityBlocking()
	if err != nil {
		return 0, err
	}
	c, err := p.ConversionBlocking()
	if err != nil {
		return 0, err
	}
	if floats.Zero(c) {
		return math.Inf(1), nil
	}
	return nc / c, nil
}
