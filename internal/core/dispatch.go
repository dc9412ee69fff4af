package core

import (
	"fmt"

	"xbar/internal/asymptotic"
)

// Dispatch selects which solver tier answers a model: the exact
// lattice recursions (Algorithms 1/2, O(N1*N2*R)) or the saddle-point
// asymptotic expansion (internal/asymptotic, O(R) with a computable
// error bound). The zero value is DispatchAuto.
type Dispatch int

const (
	// DispatchAuto picks the tier per model: exact at or below the
	// size cutoff, asymptotic above it when its self-reported error
	// bound meets the tolerance, exact again as the fallback.
	DispatchAuto Dispatch = iota
	// DispatchExact always uses the lattice recursions.
	DispatchExact
	// DispatchAsymptotic always uses the expansion, whatever the
	// bound; callers inspect Result.ErrorBound themselves.
	DispatchAsymptotic
)

// String returns the wire name of the policy ("auto", "exact",
// "asymptotic"), the same vocabulary ParseDispatch accepts.
func (d Dispatch) String() string {
	switch d {
	case DispatchExact:
		return "exact"
	case DispatchAsymptotic:
		return "asymptotic"
	default:
		return "auto"
	}
}

// ParseDispatch maps the wire name of a policy to its value. The
// empty string parses as DispatchAuto so absent request fields keep
// the default behavior.
func ParseDispatch(s string) (Dispatch, error) {
	switch s {
	case "", "auto":
		return DispatchAuto, nil
	case "exact":
		return DispatchExact, nil
	case "asymptotic":
		return DispatchAsymptotic, nil
	}
	return DispatchAuto, fmt.Errorf("core: unknown dispatch policy %q (want auto, exact or asymptotic)", s)
}

// Result.Tier values.
const (
	// TierExact marks a Result computed by the lattice recursions.
	TierExact = "exact"
	// TierAsymptotic marks a Result computed by the saddle-point
	// expansion; Result.ErrorBound holds its per-class bounds.
	TierAsymptotic = "asymptotic"
)

// DefaultDispatchCutoff is the largest max(N1, N2) DispatchAuto still
// solves exactly without consulting the expansion. At 512 the exact
// fill is single-digit milliseconds (docs/PERFORMANCE.md), cheap
// enough that the expansion's bound is not worth checking below it.
const DefaultDispatchCutoff = 512

// DefaultTolerance is the relative-error tolerance DispatchAuto holds
// the asymptotic tier to when DispatchOptions.Tolerance is unset.
const DefaultTolerance = 1e-2

// DispatchOptions configures SolveAuto and TryAsymptotic. The zero
// value is the default auto policy: DefaultDispatchCutoff and
// DefaultTolerance.
type DispatchOptions struct {
	// Policy selects the tier (the zero value is DispatchAuto).
	Policy Dispatch
	// Tolerance is the largest per-class relative-error bound an
	// asymptotic answer may carry under DispatchAuto; a larger bound
	// falls back to the exact tier. <= 0 means DefaultTolerance.
	Tolerance float64
	// Cutoff is the max(N1, N2) at and below which DispatchAuto
	// solves exactly without trying the expansion. <= 0 means
	// DefaultDispatchCutoff.
	Cutoff int
}

// tolerance resolves the effective tolerance.
func (o DispatchOptions) tolerance() float64 {
	if o.Tolerance <= 0 {
		return DefaultTolerance
	}
	return o.Tolerance
}

// cutoff resolves the effective size cutoff.
func (o DispatchOptions) cutoff() int {
	if o.Cutoff <= 0 {
		return DefaultDispatchCutoff
	}
	return o.Cutoff
}

// asymClasses converts a validated switch to the expansion's
// canonical per-route form.
func asymClasses(sw Switch) []asymptotic.Class {
	out := make([]asymptotic.Class, len(sw.Classes))
	for i, c := range sw.Classes {
		out[i] = asymptotic.Class{A: c.A, Rho: c.Rho()}
		if !c.IsPoisson() {
			out[i].BetaMu = c.BetaMu()
		}
	}
	return out
}

// SolveAsymptotic evaluates the switch with the saddle-point
// expansion alone: O(R) work independent of N1 and N2. The Result
// carries Tier = TierAsymptotic and per-class relative-error bounds
// in ErrorBound; callers that need a guarantee should check them (or
// use SolveAuto, which does).
func SolveAsymptotic(sw Switch) (*Result, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	est, err := asymptotic.Solve(sw.N1, sw.N2, asymClasses(sw))
	if err != nil {
		return nil, err
	}
	return &Result{
		Switch:      sw,
		Method:      "asymptotic",
		Tier:        TierAsymptotic,
		NonBlocking: est.NonBlocking,
		Blocking:    est.Blocking,
		Concurrency: est.Concurrency,
		ErrorBound:  est.Bound,
		LogG:        est.LogG,
	}, nil
}

// TryAsymptotic applies the dispatch policy and, when it routes to
// the expansion, solves there. It returns (nil, false, nil) when the
// policy routes to the exact tier — because the policy is
// DispatchExact, the model is at or below the cutoff, or the
// expansion's bound exceeds the tolerance (DispatchAuto's fallback).
// Under DispatchAsymptotic a failed expansion is an error; under
// DispatchAuto it is a fallback.
func TryAsymptotic(sw Switch, opt DispatchOptions) (*Result, bool, error) {
	switch opt.Policy {
	case DispatchExact:
		return nil, false, nil
	case DispatchAsymptotic:
		res, err := SolveAsymptotic(sw)
		if err != nil {
			return nil, false, err
		}
		return res, true, nil
	}
	if max(sw.N1, sw.N2) <= opt.cutoff() {
		return nil, false, nil
	}
	res, err := SolveAsymptotic(sw)
	if err != nil || res.MaxErrorBound() > opt.tolerance() {
		return nil, false, nil
	}
	return res, true, nil
}

// SolveAuto evaluates the switch through the dispatch policy: the
// asymptotic tier when TryAsymptotic accepts the model, otherwise
// Solve(sw) bit-identically, with Result.Tier recording which tier
// answered.
func SolveAuto(sw Switch, opt DispatchOptions) (*Result, error) {
	if res, ok, err := TryAsymptotic(sw, opt); err != nil || ok {
		return res, err
	}
	res, err := Solve(sw)
	if err != nil {
		return nil, err
	}
	res.Tier = TierExact
	return res, nil
}
