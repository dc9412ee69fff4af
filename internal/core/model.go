// Package core implements the analytical model of the N1 x N2
// asynchronous multi-rate crossbar of Stirpe & Pinsky (SIGCOMM 1992).
//
// The switch carries R classes of circuit-switched connection requests.
// A class-r connection seizes a_r inputs and a_r outputs simultaneously
// for a generally distributed holding time with mean 1/mu_r; blocked
// requests are cleared. Requests for one particular ordered route (an
// ordered a_r-tuple of inputs and an ordered a_r-tuple of outputs)
// arrive with the state-dependent BPP intensity
//
//	lambda_r(k_r) = alpha_r + beta_r * k_r ,
//
// where k_r is the number of class-r connections in progress. The state
// k = (k_1, ..., k_R) is a reversible Markov process with the
// product-form distribution of paper Eq. 2:
//
//	pi(k) = Psi(k) * prod_r Phi_r(k_r) / G(N),
//	Psi(k) = N1!/(N1-k.A)! * N2!/(N2-k.A)!,
//	Phi_r(k) = prod_{l=1..k} lambda_r(l-1) / (l mu_r).
//
// The package provides four independent evaluators of the performance
// measures, used to cross-validate one another:
//
//   - SolveDirect: literal summation over the state space (small N).
//   - SolveConvolution: per-class convolution over total occupancy.
//   - Solve (Algorithm 1): the paper's Q(N) lattice recursion with the
//     dynamic scaling of Section 6.
//   - SolveMVA (Algorithm 2): the paper's mean-value recursion on
//     normalization-constant ratios, numerically stable in plain
//     float64.
package core

import (
	"fmt"
	"math"

	"xbar/internal/combin"
	"xbar/internal/dist"
	"xbar/internal/floats"
)

// Class describes one traffic class offered to the switch, in per-route
// units: Alpha and Beta parameterize the arrival intensity for one
// particular ordered route. Use AggregateClass for the per-input-set
// ("tilde") units the paper's numerical section quotes.
type Class struct {
	// Name labels the class in reports.
	Name string
	// A is the bandwidth requirement a_r: the number of inputs (and
	// outputs) one connection seizes. Must be >= 1.
	A int
	// Alpha is the state-independent part of the BPP arrival intensity
	// for one ordered route. Must be > 0.
	Alpha float64
	// Beta is the state-dependent slope of the arrival intensity:
	// negative for smooth (Bernoulli), zero for Poisson, positive for
	// peaky (Pascal) traffic.
	Beta float64
	// Mu is the service rate; mean holding time is 1/Mu. Must be > 0.
	Mu float64
}

// Rho returns the per-route offered load alpha_r / mu_r. Mu must be
// positive (Switch.Validate enforces it), so the ratio is finite.
func (c Class) Rho() float64 { return c.Alpha / c.Mu }

// BetaMu returns the normalized slope beta_r / mu_r. Mu must be
// positive (Switch.Validate enforces it), so the ratio is finite.
func (c Class) BetaMu() float64 { return c.Beta / c.Mu }

// IsPoisson reports whether the class belongs to the paper's group R1
// (beta_r = 0); otherwise it belongs to R2. A slope within rounding
// noise of zero counts as Poisson: the bursty-class formulas divide
// by beta_r and lose all precision as beta_r -> 0, while the Poisson
// limit is exact there.
func (c Class) IsPoisson() bool { return floats.Zero(c.Beta) }

// BPP returns the class's arrival source in dist form.
func (c Class) BPP() dist.BPP { return dist.BPP{Alpha: c.Alpha, Beta: c.Beta, Mu: c.Mu} }

// Rate returns lambda_r(k) = alpha_r + beta_r*k for one route.
func (c Class) Rate(k int) float64 { return c.Alpha + c.Beta*float64(k) }

// StateDependentServiceClass builds the class that is statistically
// identical to unit-rate Poisson arrivals served at the congestion-
// dependent rate mu_r(k) = k mu / (v + delta k) — the dual reading of
// the model in Section 2 of the paper (delta > 1 models slow-down
// under congestion, 0 < delta < 1 efficiency gains; the equivalence is
// alpha = v + delta, beta = delta). The returned class uses the
// state-dependent-ARRIVAL parameterization the solvers consume.
func StateDependentServiceClass(name string, a int, v, delta, mu float64) Class {
	return Class{
		Name:  name,
		A:     a,
		Alpha: v + delta,
		Beta:  delta,
		Mu:    mu,
	}
}

// AggregateClass describes a class in the paper's "tilde" units, where
// the intensity is quoted per particular input set aggregated over all
// C(N2, a_r) output sets: lambda~_r(k) = C(N2, a_r) * lambda_r(k)
// (Section 2). The numerical section of the paper states all loads in
// these units (alpha~ = .0024 and so on).
type AggregateClass struct {
	Name       string
	A          int
	AlphaTilde float64
	BetaTilde  float64
	Mu         float64
}

// PerRoute converts the aggregate class into per-route units for a
// switch with n2 outputs, dividing the tilde intensities by C(n2, a_r).
func (a AggregateClass) PerRoute(n2 int) Class {
	scale := combin.Binom(n2, a.A)
	if floats.Zero(scale) { // Binom is either exactly 0 or at least 1
		// A switch smaller than the bandwidth requirement carries no
		// class-r traffic at all; keep intensities finite and let the
		// state space (which admits only k_r = 0) produce E_r = 0.
		scale = 1
	}
	return Class{
		Name:  a.Name,
		A:     a.A,
		Alpha: a.AlphaTilde / scale,
		Beta:  a.BetaTilde / scale,
		Mu:    a.Mu,
	}
}

// Switch is an N1 x N2 asynchronous crossbar offered a set of traffic
// classes.
type Switch struct {
	N1, N2  int
	Classes []Class
}

// NewSwitch builds a Switch from aggregate ("tilde") classes, converting
// each to per-route units for the given dimensions.
func NewSwitch(n1, n2 int, classes ...AggregateClass) Switch {
	sw := Switch{N1: n1, N2: n2}
	for _, a := range classes {
		sw.Classes = append(sw.Classes, a.PerRoute(n2))
	}
	return sw
}

// MinN returns min(N1, N2), the occupancy capacity of the switch: no
// state can hold more than MinN busy inputs (or outputs).
func (s Switch) MinN() int {
	if s.N1 < s.N2 {
		return s.N1
	}
	return s.N2
}

// MaxN returns max(N1, N2).
func (s Switch) MaxN() int {
	if s.N1 > s.N2 {
		return s.N1
	}
	return s.N2
}

// Validate checks the model constraints: positive dimensions, a_r >= 1,
// alpha_r > 0, mu_r > 0, Pascal convergence beta_r/mu_r < 1, the
// Bernoulli population constraints of Section 2, and derived rates the
// solvers can carry: a_r rho_r positive and finite (not overflowed,
// not underflowed to zero), beta_r/mu_r finite.
func (s Switch) Validate() error {
	if s.N1 < 1 || s.N2 < 1 {
		return fmt.Errorf("core: switch dimensions %dx%d, must be >= 1x1", s.N1, s.N2)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("core: switch has no traffic classes")
	}
	for i, c := range s.Classes {
		if c.A < 1 {
			return fmt.Errorf("core: class %d (%s): a_r = %d, must be >= 1", i, c.Name, c.A)
		}
		if err := c.BPP().Validate(s.MaxN()); err != nil {
			return fmt.Errorf("core: class %d (%s): %w", i, c.Name, err)
		}
		// The solvers run on the derived rates, not the raw inputs:
		// finite alpha and mu can still give an infinite rho (or one
		// that underflows to zero), and the lattice fills take every
		// class coefficient a_r rho_r to be positive and finite.
		if ar := float64(c.A) * c.Rho(); !(ar > 0) || math.IsInf(ar, 1) {
			return fmt.Errorf("core: class %d (%s): a_r rho_r = %v, must be positive and finite", i, c.Name, ar)
		}
		if bm := c.BetaMu(); math.IsNaN(bm) || math.IsInf(bm, 0) {
			return fmt.Errorf("core: class %d (%s): beta_r/mu_r = %v, must be finite", i, c.Name, bm)
		}
	}
	return nil
}

// maxCount returns the largest feasible k_r for class index r: the
// occupancy bound min(N1,N2) divided by a_r.
func (s Switch) maxCount(r int) int {
	return s.MinN() / s.Classes[r].A
}

// occupancy returns k.A for a state vector k.
func (s Switch) occupancy(k []int) int {
	total := 0
	for r, kr := range k {
		total += kr * s.Classes[r].A
	}
	return total
}

// StateCount returns |Gamma(N)|, the number of feasible states, by
// enumeration. Useful for sizing exact computations.
func (s Switch) StateCount() int64 {
	var count int64
	s.walkStates(func([]int) { count++ })
	return count
}

// WalkStates invokes fn for every state k in Gamma(N) in lexicographic
// order. The slice passed to fn is reused between calls; copy it if
// retained.
func (s Switch) WalkStates(fn func(k []int)) { s.walkStates(fn) }

// Occupancy returns k.A = sum_r k_r a_r for a state vector.
func (s Switch) OccupancyOf(k []int) int { return s.occupancy(k) }

// walkStates invokes fn for every k in Gamma(N). The slice passed to fn
// is reused between calls; copy it if retained.
func (s Switch) walkStates(fn func(k []int)) {
	k := make([]int, len(s.Classes))
	var rec func(r, used int)
	rec = func(r, used int) {
		if r == len(s.Classes) {
			fn(k)
			return
		}
		limit := (s.MinN() - used) / s.Classes[r].A
		for kr := 0; kr <= limit; kr++ {
			k[r] = kr
			rec(r+1, used+kr*s.Classes[r].A)
		}
		k[r] = 0
	}
	rec(0, 0)
}

// Sub returns the switch shrunk by a on both sides (N - a*I in the
// paper's notation), keeping the same per-route classes.
func (s Switch) Sub(a int) Switch {
	return Switch{N1: s.N1 - a, N2: s.N2 - a, Classes: s.Classes}
}
