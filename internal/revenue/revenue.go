// Package revenue implements the revenue-oriented performance analysis
// of Section 4 of the paper. An accepted class-r connection earns
// revenue w_r, so the average return
//
//	W(N) = sum_r w_r E_r(N)
//
// is the weighted throughput (with w_r = gamma_r mu_r it is the
// throughput weighted by gamma). Load-change sensitivity is captured by
// the gradients dW/d rho_r (Poisson classes) and dW/d(beta_r/mu_r)
// (bursty classes); the closed form
//
//	dW/d rho_r = P(N1,a_r) P(N2,a_r) B_r(N) ( w_r - DeltaW_r(N) ),
//	DeltaW_r(N) = W(N) - W(N - a_r I),
//
// holds when every class is Poisson and yields the paper's economic
// reading: an accepted request earns w_r but displaces DeltaW_r of
// other traffic — a shadow cost. (The paper writes N1 N2 for the
// leading factor, the a_r = 1 case of the permutation product.) For
// mixed traffic no closed form exists and the paper falls back to a
// numerical difference, as does this package.
package revenue

import (
	"fmt"
	"math"

	"xbar/internal/combin"
	"xbar/internal/core"
)

// Analysis evaluates revenue measures for one switch and weight vector.
// All in-lattice reads (W, shadow costs, the closed-form gradient) run
// on a core.SweepSolver: one lattice fill, memoized sub-size results.
// Only the numerical-difference gradients re-solve, and those go
// through one reusable scratch solver instead of allocating per step.
//
// Many Analyses may share one sweep solver concurrently (its reads are
// safe for concurrent use), but one Analysis owns its gradient scratch
// and is for one goroutine at a time.
type Analysis struct {
	sw      core.Switch
	weights []float64
	sweep   *core.SweepSolver
	// scratch and scratchClasses serve perturbedW, lazily allocated on
	// the first gradient call and recycled afterwards.
	scratch        *core.Solver
	scratchClasses []core.Class
}

// New builds an Analysis. weights must contain one revenue rate per
// traffic class.
func New(sw core.Switch, weights []float64) (*Analysis, error) {
	sweep, err := core.NewSweepSolver(sw)
	if err != nil {
		return nil, err
	}
	return NewWithSweep(sweep, weights)
}

// NewWithSweep builds an Analysis on an already filled sweep solver,
// sharing its retained lattice instead of filling a new one — the path
// the admission-control server (internal/server) takes so revenue
// reads ride its solver cache. weights must contain one revenue rate
// per class of the sweep's switch. The trailing core.Options are inert
// (see core.Options).
func NewWithSweep(sweep *core.SweepSolver, weights []float64, _ ...core.Options) (*Analysis, error) {
	sw := sweep.Switch()
	if len(weights) != len(sw.Classes) {
		return nil, fmt.Errorf("revenue: %d weights for %d classes", len(weights), len(sw.Classes))
	}
	return &Analysis{sw: sw, weights: weights, sweep: sweep}, nil
}

// Switch returns the analyzed switch.
func (a *Analysis) Switch() core.Switch { return a.sw }

// W returns the average revenue W(N) at the full switch size.
func (a *Analysis) W() float64 { return a.WAt(a.sw.N1, a.sw.N2) }

// WAt returns W for the sub-switch (n1, n2); by convention W = 0 once
// either dimension reaches zero (E_r(0) = 0 in the paper).
func (a *Analysis) WAt(n1, n2 int) float64 {
	return a.sweep.WAt(a.weights, n1, n2)
}

// Result exposes the underlying performance measures.
func (a *Analysis) Result() *core.Result { return a.sweep.Result() }

// ShadowCost returns DeltaW_r(N) = W(N) - W(N - a_r I): the revenue
// displaced from other traffic by dedicating a_r inputs and outputs to
// one class-r connection. A pure lattice read — no re-solve.
func (a *Analysis) ShadowCost(r int) float64 {
	return a.sweep.ShadowCost(a.weights, r)
}

// Profitable reports whether admitting more class-r load raises total
// revenue: w_r > DeltaW_r(N). This is the paper's economic
// interpretation of the gradient's sign.
func (a *Analysis) Profitable(r int) bool {
	return a.weights[r] > a.ShadowCost(r)
}

// GradientRhoClosed returns the closed-form dW/d rho_r. Exact when all
// classes are Poisson; for mixed traffic it is the Poisson-structure
// approximation the paper tabulates alongside the numerical bursty
// gradient.
func (a *Analysis) GradientRhoClosed(r int) float64 {
	ar := a.sw.Classes[r].A
	if ar > a.sw.MinN() {
		return 0
	}
	br := a.sweep.Result().NonBlocking[r]
	lead := combin.Perm(a.sw.N1, ar) * combin.Perm(a.sw.N2, ar)
	return lead * br * (a.weights[r] - a.ShadowCost(r))
}

// GradientRho returns dW/d rho_r by symmetric central difference with
// relative step h (the per-route load rho_r = alpha_r/mu_r is
// perturbed by +-h*max(rho_r, floor)). It re-solves the model twice,
// and is NaN when a perturbed model is invalid (see perturbedW).
func (a *Analysis) GradientRho(r int, h float64) float64 {
	c := a.sw.Classes[r]
	step := h * maxf(c.Rho(), 1e-9)
	return (a.perturbedW(r, step*c.Mu, 0) - a.perturbedW(r, -step*c.Mu, 0)) / (2 * step)
}

// GradientBetaMu returns dW/d(beta_r/mu_r) by symmetric central
// difference, the numerical approach the paper uses for bursty classes
// (Section 4 approximates it via a forward difference; the central
// form halves the truncation error at the same cost). It is NaN when a
// perturbed model is invalid (see perturbedW), which includes every
// Bernoulli class.
func (a *Analysis) GradientBetaMu(r int, h float64) float64 {
	c := a.sw.Classes[r]
	step := h * maxf(absf(c.BetaMu()), maxf(c.Rho(), 1e-9))
	return (a.perturbedW(r, 0, step*c.Mu) - a.perturbedW(r, 0, -step*c.Mu)) / (2 * step)
}

// HasBetaMuGradient reports whether GradientBetaMu is defined for
// class c of sw: a Pascal class (beta > 0) on a switch of at least
// 2x2. A Poisson class has no beta to move, and a Bernoulli class's
// beta cannot move continuously: its population -alpha/beta must stay
// an integer.
func HasBetaMuGradient(c core.Class, sw core.Switch) bool {
	return !c.IsPoisson() && c.Beta > 0 && sw.MinN() >= 2
}

// GradientBetaMuForward returns the one-sided forward difference the
// paper describes, for faithfulness comparisons. NaN when the
// perturbed model is invalid (see perturbedW).
func (a *Analysis) GradientBetaMuForward(r int, h float64) float64 {
	c := a.sw.Classes[r]
	step := h * maxf(absf(c.BetaMu()), maxf(c.Rho(), 1e-9))
	return (a.perturbedW(r, 0, step*c.Mu) - a.W()) / step
}

// perturbedW re-solves with class r's alpha and beta shifted, through
// the recycled scratch solver (Reuse keeps the Q lattice allocated
// across the 2-4 solves a gradient takes, and borrows the V lattices
// from core's fill scratch). A shifted model outside the
// valid parameter region has no W and yields NaN: beta_r/mu_r reaching
// 1, a negative rate, or a Bernoulli class (beta_r < 0) whose
// population -alpha_r/beta_r stops being an integer, which any shift
// of a Bernoulli class's alpha or beta causes.
func (a *Analysis) perturbedW(r int, dAlpha, dBeta float64) float64 {
	if a.scratchClasses == nil {
		a.scratchClasses = make([]core.Class, len(a.sw.Classes))
	}
	copy(a.scratchClasses, a.sw.Classes)
	a.scratchClasses[r].Alpha += dAlpha
	a.scratchClasses[r].Beta += dBeta
	sw := core.Switch{N1: a.sw.N1, N2: a.sw.N2, Classes: a.scratchClasses}
	if a.scratch == nil {
		a.scratch = &core.Solver{}
	}
	if err := a.scratch.Reuse(sw); err != nil {
		return math.NaN()
	}
	return a.scratch.Result().Revenue(a.weights)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func absf(a float64) float64 {
	if a < 0 {
		return -a
	}
	return a
}
