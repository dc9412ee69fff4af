// Package slotted implements the synchronous (slotted) crossbar the
// paper contrasts its asynchronous model against (Section 1 and
// Patel [26]). In the synchronous model, time is divided into slots;
// at each slot boundary every input independently holds a packet with
// probability p, destined to a uniformly random output; an output
// accepts exactly one of the packets that request it and the rest are
// dropped. This is packet-mode operation — there is no holding time —
// so its natural figure of merit is per-slot throughput rather than
// call blocking, which is exactly why the paper's circuit-switched
// asynchronous model needs its own analysis.
package slotted

import (
	"fmt"
	"math"

	"xbar/internal/floats"
	"xbar/internal/rng"
	"xbar/internal/stats"
)

// Throughput returns Patel's closed-form per-output acceptance rate of
// an n x m synchronous crossbar with per-input load p: the probability
// that a given output is requested by at least one input in a slot,
//
//	S_out = 1 - (1 - p/m)^n .
//
// The normalized per-input throughput is (m/n) S_out and the
// acceptance probability of an offered packet is S_out * m/(n p).
// The switch dimensions must be positive and p must lie in [0, 1];
// both come straight from user scenario parameters, so violations are
// reported as errors rather than panics.
func Throughput(n, m int, p float64) (float64, error) {
	if n < 1 || m < 1 {
		return 0, fmt.Errorf("slotted: Throughput(%d, %d): dimensions must be positive", n, m)
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("slotted: load %v outside [0,1]", p)
	}
	return 1 - math.Pow(1-p/float64(m), float64(n)), nil
}

// AcceptanceProbability returns the probability that an offered packet
// wins its output in a slot. A load within rounding noise of zero
// offers no packets, so (in the limit) every offered packet is
// accepted; treating tiny p as zero also avoids the catastrophic
// cancellation of 1 - (1-p/m)^n when p/m underflows the float64
// mantissa.
func AcceptanceProbability(n, m int, p float64) (float64, error) {
	if floats.Zero(p) {
		return 1, nil
	}
	t, err := Throughput(n, m, p)
	if err != nil {
		return 0, err
	}
	return t * float64(m) / (float64(n) * p), nil
}

// Result summarizes a slotted simulation.
type Result struct {
	// PerOutput is the measured per-output throughput with CI,
	// comparable to Throughput.
	PerOutput stats.CI
	// Acceptance is the measured per-packet acceptance probability.
	Acceptance stats.CI
	// Offered counts offered packets.
	Offered int64
}

// Simulate runs a Monte-Carlo slotted crossbar for the given number of
// slots, batched for confidence intervals.
func Simulate(n, m int, p float64, slots int, seed uint64) (*Result, error) {
	if n < 1 || m < 1 {
		return nil, fmt.Errorf("slotted: %dx%d crossbar", n, m)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("slotted: load %v outside [0,1]", p)
	}
	const batches = 20
	if slots < batches {
		return nil, fmt.Errorf("slotted: need at least %d slots, got %d", batches, slots)
	}
	stream := rng.NewStream(seed)
	perBatch := slots / batches
	var outB, accB []float64
	requested := make([]int, m)
	var offeredTotal int64
	for b := 0; b < batches; b++ {
		var accepted, offered int64
		for s := 0; s < perBatch; s++ {
			for j := range requested {
				requested[j] = 0
			}
			for i := 0; i < n; i++ {
				if stream.Float64() < p {
					offered++
					requested[stream.Intn(m)]++
				}
			}
			for _, c := range requested {
				if c > 0 {
					accepted++
				}
			}
		}
		outB = append(outB, float64(accepted)/float64(perBatch)/float64(m))
		if offered > 0 {
			accB = append(accB, float64(accepted)/float64(offered))
		}
		offeredTotal += offered
	}
	res := &Result{
		PerOutput: stats.BatchMeans(outB, 0.95),
		Offered:   offeredTotal,
	}
	res.Acceptance = stats.BatchCI(accB, 0.95)
	return res, nil
}
