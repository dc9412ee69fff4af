package asymptotic

import (
	"errors"
	"fmt"
	"math"

	"xbar/internal/combin"
	"xbar/internal/floats"
)

// ErrUnsupportedTraffic reports a traffic class outside the fixed
// point's domain (it handles Poisson classes only). EndpointFixedPoint
// wraps it with the offending class index and name, so callers branch
// with errors.Is(err, asymptotic.ErrUnsupportedTraffic) rather than
// string matching.
var ErrUnsupportedTraffic = errors.New("asymptotic: traffic class is not Poisson")

// RateClass is one traffic class of the endpoint fixed point in the
// raw per-route rates of core.Class: Alpha is the call rate per
// ordered route, Mu the service rate, and Beta the state-dependent
// slope, which must be zero.
type RateClass struct {
	Name            string
	A               int
	Alpha, Beta, Mu float64
}

// FixedPoint holds the endpoint fixed point's measures.
type FixedPoint struct {
	// Blocking approximates the specific-route time congestion per
	// class.
	Blocking []float64
	// Concurrency approximates E_r.
	Concurrency []float64
	// InputUtilization and OutputUtilization are the fixed-point port
	// busy fractions.
	InputUtilization, OutputUtilization float64
	// Iterations taken to converge.
	Iterations int
}

// EndpointFixedPoint is the expansion's zeroth order: the
// constant-space, O(iterations x R) endpoint-independence fixed point
// for an n1 x n2 switch whose classes are all Poisson. Where the exact
// algorithms cost O(N1 N2 R) lattice work, it treats the input ports
// and output ports as independently utilized pools:
//
//	U1 = sum_r a_r E_r / N1,     U2 = sum_r a_r E_r / N2,
//	B_r = 1 - (1-U1)^a_r (1-U2)^a_r,
//	E_r = T_r (1 - B_r) / mu_r,
//
// with T_r the class's total offered call rate, iterated to a fixed
// point; tol bounds the largest per-class E change. It is exact as N
// grows with port utilization held fixed (occupancy correlations
// vanish) and lands within a few percent at the paper's operating
// points: the right tool for back-of-envelope sizing of very large
// optical fabrics. State-dependent sources need Solve, and sizing
// with a computable error bound goes through core.SolveAuto.
func EndpointFixedPoint(n1, n2 int, classes []RateClass, tol float64, maxIter int) (*FixedPoint, error) {
	if n1 < 1 || n2 < 1 {
		return nil, fmt.Errorf("asymptotic: switch dimensions %dx%d, must be >= 1x1", n1, n2)
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("asymptotic: no traffic classes")
	}
	for i, c := range classes {
		if c.A < 1 {
			return nil, fmt.Errorf("asymptotic: class %d (%s): a = %d, must be >= 1", i, c.Name, c.A)
		}
		if !(c.Alpha > 0) || math.IsInf(c.Alpha, 0) || !(c.Mu > 0) || math.IsInf(c.Mu, 0) {
			return nil, fmt.Errorf("asymptotic: class %d (%s): alpha = %v, mu = %v, must be positive and finite", i, c.Name, c.Alpha, c.Mu)
		}
		if !floats.Zero(c.Beta) {
			return nil, fmt.Errorf("class %d (%s): %w; use core.Solve or core.SolveAsymptotic", i, c.Name, ErrUnsupportedTraffic)
		}
	}
	if tol <= 0 {
		return nil, fmt.Errorf("asymptotic: tolerance %v", tol)
	}
	if maxIter < 1 {
		return nil, fmt.Errorf("asymptotic: maxIter %d", maxIter)
	}
	// Total offered call rate per class over all ordered routes.
	offered := make([]float64, len(classes))
	maxCarried := 0.0
	for r, c := range classes {
		offered[r] = c.Alpha * combin.Perm(n1, c.A) * combin.Perm(n2, c.A)
		maxCarried += float64(c.A) * offered[r] / c.Mu
	}
	// The aggregate busy level determines everything, and the map
	// busy -> sum a_r T_r (1 - B_r(busy)) / mu_r is strictly
	// decreasing, so its unique fixed point is found by bisection —
	// immune to the 2-cycles naive successive substitution falls into
	// under overload.
	carriedAt := func(busy float64) (total float64, b []float64, e []float64) {
		u1 := clamp01(busy / float64(n1))
		u2 := clamp01(busy / float64(n2))
		b = make([]float64, len(classes))
		e = make([]float64, len(classes))
		for r, c := range classes {
			b[r] = 1 - math.Pow(1-u1, float64(c.A))*math.Pow(1-u2, float64(c.A))
			e[r] = offered[r] * (1 - b[r]) / c.Mu
			total += float64(c.A) * e[r]
		}
		return total, b, e
	}
	lo, hi := 0.0, math.Max(float64(min(n1, n2)), maxCarried)
	var iter int
	for iter = 1; iter <= maxIter; iter++ {
		mid := (lo + hi) / 2
		total, _, _ := carriedAt(mid)
		if total > mid {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < tol {
			break
		}
	}
	if iter > maxIter {
		return nil, fmt.Errorf("asymptotic: no convergence in %d iterations", maxIter)
	}
	busy := (lo + hi) / 2
	_, blocking, e := carriedAt(busy)
	return &FixedPoint{
		Blocking:          blocking,
		Concurrency:       e,
		InputUtilization:  clamp01(busy / float64(n1)),
		OutputUtilization: clamp01(busy / float64(n2)),
		Iterations:        iter,
	}, nil
}

// AsymptoticBlocking returns the N -> infinity limit of the blocking
// probability of a square crossbar carrying single-rate Poisson
// traffic at fixed aggregate intensity alphaTilde per input set (the
// paper's Figure 1-3 normalization, where the curves visibly flatten).
// In the limit, port occupancies decouple and the per-port utilization
// u solves the scalar fixed point
//
//	u = alphaTilde (1-u)^2,   B = 1 - (1-u)^2,
//
// found by bisection (the right side is decreasing in u).
func AsymptoticBlocking(alphaTilde float64) (float64, error) {
	if alphaTilde < 0 {
		return 0, fmt.Errorf("asymptotic: alphaTilde %v", alphaTilde)
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if alphaTilde*(1-mid)*(1-mid) > mid {
			lo = mid
		} else {
			hi = mid
		}
	}
	u := (lo + hi) / 2
	return 1 - (1-u)*(1-u), nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
