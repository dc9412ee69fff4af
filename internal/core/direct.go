package core

import (
	"fmt"

	"xbar/internal/combin"
	"xbar/internal/scale"
)

// RateFunc gives a state-dependent transition intensity as a function
// of the class's connection count.
type RateFunc func(k int) float64

// SolveDirect evaluates the performance measures by literal summation
// of the product form over the whole state space Gamma(N), using scaled
// arithmetic so it stays exact at any switch size. Its cost is
// |Gamma(N)|, exponential in the number of classes, so it serves as the
// ground truth for the recursive algorithms rather than as the
// production path.
func SolveDirect(sw Switch) (*Result, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	birth := make([]RateFunc, len(sw.Classes))
	death := make([]RateFunc, len(sw.Classes))
	for i, c := range sw.Classes {
		c := c
		birth[i] = c.Rate
		death[i] = func(k int) float64 { return float64(k) * c.Mu }
	}
	return solveDirectRates(sw, birth, death, "direct")
}

// SolveDirectRates evaluates the measures for the generalized model in
// which class r has an arbitrary state-dependent arrival intensity
// birth_r(k) (per ordered route) and an arbitrary total service rate
// death_r(k) when k class-r connections are in progress. The paper's
// Section 2 equivalence — Poisson arrivals with state-dependent service
// mu_r(k) = k mu_r/(v_r + delta_r k) versus BPP arrivals with
// state-independent service — is a property test built on this entry
// point. The product form Eq. 2 generalizes with
// Phi_r(k) = prod_{l=1..k} birth_r(l-1)/death_r(l).
func SolveDirectRates(sw Switch, birth, death []RateFunc) (*Result, error) {
	if sw.N1 < 1 || sw.N2 < 1 {
		return nil, fmt.Errorf("core: switch dimensions %dx%d, must be >= 1x1", sw.N1, sw.N2)
	}
	if len(birth) != len(sw.Classes) || len(death) != len(sw.Classes) {
		return nil, fmt.Errorf("core: %d birth / %d death rates for %d classes",
			len(birth), len(death), len(sw.Classes))
	}
	return solveDirectRates(sw, birth, death, "direct-rates")
}

func solveDirectRates(sw Switch, birth, death []RateFunc, method string) (*Result, error) {
	phi, err := phiTables(sw, birth, death)
	if err != nil {
		return nil, err
	}

	// One walk accumulates both the normalization constant and the
	// concurrency numerators E_r = sum_k k_r pi(k).
	psi := psiTableInto(nil, sw)
	g := scale.Zero
	sums := make([]scale.Number, len(sw.Classes))
	sw.walkStates(func(k []int) {
		term := stateWeightPsi(sw, psi, phi, k)
		g = g.Add(term)
		for r, kr := range k {
			if kr > 0 {
				sums[r] = sums[r].Add(term.MulFloat(float64(kr)))
			}
		}
	})
	if g.IsZero() {
		return nil, fmt.Errorf("core: normalization constant is zero")
	}

	res := newResult(sw, method)
	res.LogG = g.Log()
	for r := range sums {
		res.Concurrency[r] = sums[r].Ratio(g)
	}

	// Non-blocking: B_r = G(N - a_r I)/G(N). The identity holds for any
	// state-dependent rates because it only restates the probability
	// that a_r particular inputs and outputs are simultaneously idle
	// under the uniform-traffic symmetry. The sub-switch Psi tables
	// recycle one buffer across classes.
	for r, c := range sw.Classes {
		if c.A > sw.MinN() {
			res.NonBlocking[r] = 0
			continue
		}
		sub := sw.Sub(c.A)
		psi = psiTableInto(psi, sub)
		gSub := directG(sub, psi, phi)
		res.NonBlocking[r] = gSub.Ratio(g)
	}
	res.finish()
	return res, nil
}

// phiTables precomputes Phi_r(k) for k = 0..maxCount(r) in scaled
// arithmetic. Every class's table is carved from one backing array, so
// the whole coefficient set costs two allocations regardless of the
// class count.
func phiTables(sw Switch, birth, death []RateFunc) ([][]scale.Number, error) {
	total := 0
	for r := range sw.Classes {
		total += sw.maxCount(r) + 1
	}
	backing := make([]scale.Number, total)
	phi := make([][]scale.Number, len(sw.Classes))
	for r := range sw.Classes {
		max := sw.maxCount(r)
		phi[r], backing = backing[:max+1:max+1], backing[max+1:]
		phi[r][0] = scale.One
		for k := 1; k <= max; k++ {
			b := birth[r](k - 1)
			d := death[r](k)
			if b < 0 {
				return nil, fmt.Errorf("core: class %d: negative arrival intensity %v at k=%d", r, b, k-1)
			}
			if d <= 0 {
				return nil, fmt.Errorf("core: class %d: non-positive service rate %v at k=%d", r, d, k)
			}
			phi[r][k] = phi[r][k-1].MulFloat(b / d)
		}
	}
	return phi, nil
}

// directG sums Psi(k) * prod Phi_r(k_r) over Gamma for the given switch
// dimensions, with psi the switch's psiTableInto result. The phi tables
// may extend beyond the switch's occupancy bound (when evaluating a
// sub-switch); only feasible states are visited.
func directG(sw Switch, psi []scale.Number, phi [][]scale.Number) scale.Number {
	g := scale.Zero
	sw.walkStates(func(k []int) {
		g = g.Add(stateWeightPsi(sw, psi, phi, k))
	})
	return g
}

func stateWeightPsi(sw Switch, psi []scale.Number, phi [][]scale.Number, k []int) scale.Number {
	term := psi[sw.occupancy(k)]
	for r, kr := range k {
		term = term.Mul(phi[r][kr])
	}
	return term
}

// psiTableInto fills buf (grown only when too small; pass nil for a
// fresh table) with Psi indexed by total occupancy s:
// Psi(s) = P(N1, s) * P(N2, s).
func psiTableInto(buf []scale.Number, sw Switch) []scale.Number {
	psi := grow(buf, sw.MinN()+1)
	for s := 0; s <= sw.MinN(); s++ {
		psi[s] = scale.FromLog(combin.LogPerm(sw.N1, s) + combin.LogPerm(sw.N2, s))
	}
	return psi
}
