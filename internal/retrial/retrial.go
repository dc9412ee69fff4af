// Package retrial relaxes the paper's blocked-calls-cleared assumption.
// The model states that "blocked requests are cleared from the system
// and the recovery is managed by the corresponding end-points at the
// boundaries of the network" — in a real network that recovery is a
// retry. Here a blocked request enters an orbit, waits an exponential
// back-off, and tries again (fresh uniform route), up to a maximum
// number of attempts before the end-point gives up.
//
// Retrials have no product form; the package is an event-driven
// simulator plus the limits that anchor it: with zero allowed retries
// it reproduces the cleared model exactly, and as the back-off grows
// long the retry stream thins to an ignorable trickle.
package retrial

import (
	"fmt"

	"xbar/internal/core"
	"xbar/internal/eventq"
	"xbar/internal/rng"
	"xbar/internal/stats"
)

// Config parameterizes a retrial simulation of a single-class (a = 1)
// crossbar.
type Config struct {
	// N1, N2 are the switch dimensions.
	N1, N2 int
	// Lambda is the total Poisson rate of FRESH requests.
	Lambda float64
	// Mu is the holding-time rate of established connections.
	Mu float64
	// RetryRate is the exponential back-off rate: a blocked request
	// retries after Exp(RetryRate). Ignored when MaxAttempts <= 1.
	RetryRate float64
	// MaxAttempts caps total attempts per request (1 = the paper's
	// cleared model; 0 defaults to 1).
	MaxAttempts int
	Seed        uint64
	Warmup      float64
	Horizon     float64
	Batches     int
}

// Result reports the retrial measures.
type Result struct {
	// Abandonment is the fraction of fresh requests that exhausted
	// every attempt without connecting — what the end-point user
	// finally experiences.
	Abandonment stats.CI
	// FirstAttemptBlocking is the fraction of fresh first attempts
	// blocked; with retries feeding back, it exceeds the cleared
	// model's blocking at the same fresh load.
	FirstAttemptBlocking stats.CI
	// MeanAttempts is the average number of attempts per fresh request
	// (connected or abandoned).
	MeanAttempts float64
	// MeanOrbit is the time-average number of requests waiting to
	// retry.
	MeanOrbit float64
	// Concurrency is the time-average number of established
	// connections.
	Concurrency stats.CI
	// Events counts processed events.
	Events int64
}

type event struct {
	kind int // 0 fresh arrival, 1 retry, 2 departure
	// For retries: attempts made so far. For departures: ports held.
	attempts int
	in, out  int
}

// Run simulates the retrial model.
func Run(cfg Config) (*Result, error) {
	if cfg.N1 < 1 || cfg.N2 < 1 {
		return nil, fmt.Errorf("retrial: %dx%d switch", cfg.N1, cfg.N2)
	}
	if cfg.Lambda <= 0 || cfg.Mu <= 0 {
		return nil, fmt.Errorf("retrial: lambda %v, mu %v", cfg.Lambda, cfg.Mu)
	}
	maxAttempts := cfg.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = 1
	}
	if maxAttempts < 1 {
		return nil, fmt.Errorf("retrial: max attempts %d", cfg.MaxAttempts)
	}
	if maxAttempts > 1 && cfg.RetryRate <= 0 {
		return nil, fmt.Errorf("retrial: retry rate %v with %d attempts", cfg.RetryRate, maxAttempts)
	}
	win, err := stats.NewWindow(cfg.Warmup, cfg.Horizon, cfg.Batches)
	if err != nil {
		return nil, fmt.Errorf("retrial: %w", err)
	}
	batches := win.Batches()

	stream := rng.NewStream(cfg.Seed)
	busyIn := make([]bool, cfg.N1)
	busyOut := make([]bool, cfg.N2)
	connected := 0
	orbit := 0

	end, batchLen := win.End(), win.BatchLen()
	type counts struct{ fresh, freshBlocked, abandoned, attempts int64 }
	cs := make([]counts, batches)
	connArea := make([]float64, batches)
	orbitArea := make([]float64, batches)

	var evs eventq.Queue[event]
	evs.Push(stream.Exp(cfg.Lambda), event{kind: 0})
	now := 0.0
	var events int64
	advance := func(t float64) {
		win.Add(connArea, now, t, float64(connected))
		win.Add(orbitArea, now, t, float64(orbit))
		now = t
	}

	attempt := func(attempts int) {
		// One attempt at a uniform route, charging statistics.
		b := win.Of(now)
		if b >= 0 {
			cs[b].attempts++
		}
		in := stream.Intn(cfg.N1)
		out := stream.Intn(cfg.N2)
		if !busyIn[in] && !busyOut[out] {
			busyIn[in] = true
			busyOut[out] = true
			connected++
			evs.Push(now+stream.Exp(cfg.Mu), event{kind: 2, in: in, out: out})
			return
		}
		if b >= 0 && attempts == 1 {
			cs[b].freshBlocked++
		}
		if attempts >= maxAttempts {
			if b >= 0 {
				cs[b].abandoned++
			}
			return
		}
		orbit++
		evs.Push(now+stream.Exp(cfg.RetryRate), event{kind: 1, attempts: attempts})
	}

	for evs.Len() > 0 {
		at, _ := evs.PeekTime()
		if at >= end {
			advance(end)
			break
		}
		_, ev := evs.Pop()
		advance(at)
		events++
		switch ev.kind {
		case 0:
			evs.Push(now+stream.Exp(cfg.Lambda), event{kind: 0})
			if b := win.Of(now); b >= 0 {
				cs[b].fresh++
			}
			attempt(1)
		case 1:
			orbit--
			attempt(ev.attempts + 1)
		case 2:
			busyIn[ev.in] = false
			busyOut[ev.out] = false
			connected--
		}
	}

	res := &Result{Events: events}
	var abandonB, firstB, connB []float64
	var totalFresh, totalAttempts int64
	for b := 0; b < batches; b++ {
		connB = append(connB, connArea[b]/batchLen)
		totalFresh += cs[b].fresh
		totalAttempts += cs[b].attempts
		res.MeanOrbit += orbitArea[b] / batchLen / float64(batches)
		if cs[b].fresh > 0 {
			abandonB = append(abandonB, float64(cs[b].abandoned)/float64(cs[b].fresh))
			firstB = append(firstB, float64(cs[b].freshBlocked)/float64(cs[b].fresh))
		}
	}
	if totalFresh > 0 {
		res.MeanAttempts = float64(totalAttempts) / float64(totalFresh)
	}
	res.Abandonment = stats.BatchCI(abandonB, 0.95)
	res.FirstAttemptBlocking = stats.BatchCI(firstB, 0.95)
	res.Concurrency = stats.BatchCI(connB, 0.95)
	return res, nil
}

// ClearedBlocking returns the paper's blocked-calls-cleared blocking
// for the same switch and fresh load — the MaxAttempts = 1 anchor.
func ClearedBlocking(n1, n2 int, lambda, mu float64) (float64, error) {
	// Per-route alpha: total rate / (N1 N2 ordered routes).
	sw := core.Switch{N1: n1, N2: n2, Classes: []core.Class{{
		A: 1, Alpha: lambda / float64(n1*n2), Mu: mu,
	}}}
	res, err := core.Solve(sw)
	if err != nil {
		return 0, err
	}
	return res.Blocking[0], nil
}
