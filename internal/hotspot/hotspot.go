// Package hotspot analyzes the crossbar under non-uniform (hot-spot)
// output access — the access pattern of the authors' companion paper
// "Modeling and Analysis of Hot Spots in an Asynchronous N x N
// Crossbar Switch" [28], rebuilt here as the natural stress test of
// the uniform-traffic assumption in the SIGCOMM '92 model.
//
// One output (the hot spot) attracts a fraction p of all requests;
// the remaining traffic spreads uniformly over the other N2-1 outputs;
// inputs are chosen uniformly. Non-uniform outputs break the paper's
// product form, but input symmetry still collapses the state to
// (h, c) — hot output busy or not, and the count of busy cold
// outputs — a two-dimensional chain this package solves exactly. A
// fabric-level simulator with arbitrary per-output weights
// cross-validates the reduction.
package hotspot

import (
	"fmt"

	"xbar/internal/eventq"
	"xbar/internal/rng"
	"xbar/internal/statespace"
	"xbar/internal/stats"
)

// Model is a single-class (a = 1) crossbar with one hot output.
type Model struct {
	// N1, N2 are the switch dimensions.
	N1, N2 int
	// Lambda is the total Poisson request rate offered to the switch.
	Lambda float64
	// Mu is the per-connection service rate.
	Mu float64
	// HotFraction is the probability p that a request targets the hot
	// output (output 0). p = 1/N2 recovers uniform traffic.
	HotFraction float64
}

// Validate checks the model.
func (m Model) Validate() error {
	if m.N1 < 1 || m.N2 < 2 {
		return fmt.Errorf("hotspot: %dx%d switch needs N1 >= 1, N2 >= 2", m.N1, m.N2)
	}
	if m.Lambda <= 0 || m.Mu <= 0 {
		return fmt.Errorf("hotspot: lambda %v, mu %v", m.Lambda, m.Mu)
	}
	if m.HotFraction < 0 || m.HotFraction > 1 {
		return fmt.Errorf("hotspot: hot fraction %v outside [0,1]", m.HotFraction)
	}
	return nil
}

// Result holds the exact measures.
type Result struct {
	// HotNonBlocking is the time-average probability that a request
	// directed at the hot output would be accepted (free input and
	// hot output free).
	HotNonBlocking float64
	// ColdNonBlocking is the same for a request directed at a uniform
	// cold output.
	ColdNonBlocking float64
	// NonBlocking is the overall acceptance probability
	// p*hot + (1-p)*cold; by PASTA it is also the accepted fraction.
	NonBlocking float64
	// HotUtilization is the fraction of time the hot output is busy.
	HotUtilization float64
	// MeanBusy is the mean number of connections in progress.
	MeanBusy float64
}

// state indexing: idx = h*(maxC+1) + c, h in {0,1},
// c in 0..maxC busy cold outputs, with h + c <= min(N1, N2).
func (m Model) maxC() int {
	mc := m.N2 - 1
	if m.N1 < mc {
		mc = m.N1
	}
	return mc
}

func (m Model) feasible(h, c int) bool {
	if h < 0 || h > 1 || c < 0 || c > m.maxC() {
		return false
	}
	limit := m.N1
	if m.N2 < limit {
		limit = m.N2
	}
	return h+c <= limit
}

// acceptHot returns the probability that a hot-directed arrival in
// state (h, c) is accepted: a free input exists at the chosen input
// (uniform over N1) and the hot output is free.
func (m Model) acceptHot(h, c int) float64 {
	if h == 1 {
		return 0
	}
	return float64(m.N1-h-c) / float64(m.N1)
}

// acceptCold returns the acceptance probability for a cold-directed
// arrival: free chosen input and free chosen cold output (uniform over
// the N2-1 cold outputs).
func (m Model) acceptCold(h, c int) float64 {
	return float64(m.N1-h-c) / float64(m.N1) *
		float64(m.N2-1-c) / float64(m.N2-1)
}

// Solve computes the exact steady state of the (h, c) chain.
func Solve(m Model) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	maxC := m.maxC()
	idx := func(h, c int) int { return h*(maxC+1) + c }
	n := 2 * (maxC + 1)

	// Build the generator over the compound state.
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	add := func(from, to int, rate float64) {
		if rate <= 0 {
			return
		}
		q[from][to] += rate
		q[from][from] -= rate
	}
	p := m.HotFraction
	for h := 0; h <= 1; h++ {
		for c := 0; c <= maxC; c++ {
			if !m.feasible(h, c) {
				continue
			}
			from := idx(h, c)
			if m.feasible(h+1, c) {
				add(from, idx(h+1, c), m.Lambda*p*m.acceptHot(h, c))
			}
			if m.feasible(h, c+1) {
				add(from, idx(h, c+1), m.Lambda*(1-p)*m.acceptCold(h, c))
			}
			if h == 1 {
				add(from, idx(0, c), m.Mu)
			}
			if c > 0 {
				add(from, idx(h, c-1), float64(c)*m.Mu)
			}
		}
	}

	// Solve pi Q = 0 with normalization, via the shared dense solver.
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = q[j][i]
		}
	}
	// Infeasible states have empty rows/columns; pin them to zero to
	// keep the system nonsingular.
	for h := 0; h <= 1; h++ {
		for c := 0; c <= maxC; c++ {
			if !m.feasible(h, c) {
				i := idx(h, c)
				for j := 0; j < n; j++ {
					a[i][j] = 0
				}
				a[i][i] = 1
				b[i] = 0
			}
		}
	}
	// Replace one feasible balance equation (the empty state's, which
	// is redundant given the others) with the normalization. Summing
	// only over feasible states keeps the pinned zeros intact.
	norm := idx(0, 0)
	for j := 0; j < n; j++ {
		a[norm][j] = 0
	}
	for h := 0; h <= 1; h++ {
		for c := 0; c <= maxC; c++ {
			if m.feasible(h, c) {
				a[norm][idx(h, c)] = 1
			}
		}
	}
	b[norm] = 1
	pi, err := statespace.SolveLinear(a, b)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	for h := 0; h <= 1; h++ {
		for c := 0; c <= maxC; c++ {
			if !m.feasible(h, c) {
				continue
			}
			w := pi[idx(h, c)]
			res.HotNonBlocking += w * m.acceptHot(h, c)
			res.ColdNonBlocking += w * m.acceptCold(h, c)
			res.HotUtilization += w * float64(h)
			res.MeanBusy += w * float64(h+c)
		}
	}
	res.NonBlocking = p*res.HotNonBlocking + (1-p)*res.ColdNonBlocking
	return res, nil
}

// SimConfig parameterizes the fabric simulation.
type SimConfig struct {
	Seed    uint64
	Warmup  float64
	Horizon float64
	Batches int
}

// SimResult reports the simulation estimates.
type SimResult struct {
	HotBlocking  stats.CI
	ColdBlocking stats.CI
	AllBlocking  stats.CI
	MeanBusy     stats.CI
	Events       int64
}

type departure struct{ in, out int }

// Simulate runs the full fabric with the hot-spot access pattern:
// output 0 with probability HotFraction, otherwise uniform over the
// cold outputs; inputs uniform; blocked-calls-cleared.
func Simulate(m Model, cfg SimConfig) (*SimResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	win, err := stats.NewWindow(cfg.Warmup, cfg.Horizon, cfg.Batches)
	if err != nil {
		return nil, fmt.Errorf("hotspot: %w", err)
	}
	batches := win.Batches()
	stream := rng.NewStream(cfg.Seed)
	busyIn := make([]bool, m.N1)
	busyOut := make([]bool, m.N2)
	busy := 0
	var deps eventq.Queue[departure]
	end, batchLen := win.End(), win.BatchLen()
	type counts struct{ offered, blocked int64 }
	hot := make([]counts, batches)
	cold := make([]counts, batches)
	busyArea := make([]float64, batches)
	now := 0.0
	var events int64
	advance := func(t float64) {
		win.Add(busyArea, now, t, float64(busy))
		now = t
	}
	nextArr := stream.Exp(m.Lambda)
	for {
		t := nextArr
		isDep := false
		if at, ok := deps.PeekTime(); ok && at < t {
			t, isDep = at, true
		}
		if t >= end {
			advance(end)
			break
		}
		advance(t)
		events++
		if isDep {
			_, d := deps.Pop()
			busyIn[d.in] = false
			busyOut[d.out] = false
			busy--
			continue
		}
		nextArr = now + stream.Exp(m.Lambda)
		isHot := stream.Float64() < m.HotFraction
		out := 0
		if !isHot {
			out = 1 + stream.Intn(m.N2-1)
		}
		in := stream.Intn(m.N1)
		b := win.Of(now)
		accepted := !busyIn[in] && !busyOut[out]
		if b >= 0 {
			if isHot {
				hot[b].offered++
				if !accepted {
					hot[b].blocked++
				}
			} else {
				cold[b].offered++
				if !accepted {
					cold[b].blocked++
				}
			}
		}
		if !accepted {
			continue
		}
		busyIn[in] = true
		busyOut[out] = true
		busy++
		deps.Push(now+stream.Exp(m.Mu), departure{in: in, out: out})
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
	all := make([]counts, batches)
	for b := range all {
		all[b].offered = hot[b].offered + cold[b].offered
		all[b].blocked = hot[b].blocked + cold[b].blocked
	}
	busyB := make([]float64, batches)
	for b := range busyB {
		busyB[b] = busyArea[b] / batchLen
	}
	return &SimResult{
		HotBlocking:  ratioCI(hot),
		ColdBlocking: ratioCI(cold),
		AllBlocking:  ratioCI(all),
		MeanBusy:     stats.BatchMeans(busyB, 0.95),
		Events:       events,
	}, nil
}
