package server

import (
	"fmt"
	"net/http"

	"xbar/internal/core"
	"xbar/internal/floats"
	"xbar/internal/revenue"
)

// DispatchSpec carries the tier-selection fields every /v1 solve
// endpoint accepts. Absent (empty) dispatch keeps the pre-dispatch
// contract: exact solves only, dimensions capped at MaxDim with a 400
// — existing clients see identical behavior. "exact", "auto" and
// "asymptotic" opt into the dispatch layer (core.SolveAuto
// semantics); tolerance bounds the per-class relative error an
// asymptotic answer may carry under "auto" (0 means the
// core.DefaultTolerance) and is rejected without a policy.
type DispatchSpec struct {
	Dispatch  string  `json:"dispatch,omitempty"`
	Tolerance float64 `json:"tolerance,omitempty"`
}

// parseDispatch validates the spec. A nil return with nil error means
// dispatch is off (the legacy exact path).
func (s *Server) parseDispatch(d DispatchSpec) (*core.DispatchOptions, error) {
	if d.Dispatch == "" {
		if !floats.Zero(d.Tolerance) {
			return nil, badRequest("tolerance %v without a dispatch policy", d.Tolerance)
		}
		return nil, nil
	}
	pol, err := core.ParseDispatch(d.Dispatch)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if !finite(d.Tolerance) || d.Tolerance < 0 {
		return nil, badRequest("tolerance %v, want a finite value >= 0", d.Tolerance)
	}
	return &core.DispatchOptions{Policy: pol, Tolerance: d.Tolerance}, nil
}

// unprocessable builds a 422: the request is well-formed but the
// model cannot be served as asked.
func unprocessable(format string, args ...any) error {
	return &apiError{code: http.StatusUnprocessableEntity, msg: fmt.Sprintf(format, args...)}
}

// checkDims enforces the dimension caps under the dispatch policy:
// MaxDim without dispatch (400 over it, the legacy contract),
// MaxAsymDim with a non-exact policy, and the 422 contract for
// asymptotic-only sizes requested with dispatch=exact.
func (s *Server) checkDims(n1, n2 int, opt *core.DispatchOptions) error {
	if n1 <= s.cfg.MaxDim && n2 <= s.cfg.MaxDim {
		return nil
	}
	switch {
	case opt == nil:
		return badRequest("switch dimensions %dx%d exceed the server limit %d", n1, n2, s.cfg.MaxDim)
	case n1 > s.cfg.MaxAsymDim || n2 > s.cfg.MaxAsymDim:
		return badRequest("switch dimensions %dx%d exceed the server limit %d", n1, n2, s.cfg.MaxAsymDim)
	case opt.Policy == core.DispatchExact:
		return unprocessable("switch dimensions %dx%d are asymptotic-only on this server (exact limit %d), but dispatch is exact",
			n1, n2, s.cfg.MaxDim)
	}
	return nil
}

// effectiveTolerance mirrors the core dispatch default for messages.
func effectiveTolerance(opt *core.DispatchOptions) float64 {
	if opt.Tolerance <= 0 {
		return core.DefaultTolerance
	}
	return opt.Tolerance
}

// tryAsymptotic runs the dispatch decision for one model. It returns
// (res, true, nil) when the asymptotic tier answered, (nil, false,
// nil) when the exact path should run, and an error when neither can
// serve the request: a forced-asymptotic failure, or an auto fallback
// at a size the exact tier is not allowed to fill (both 422).
func (s *Server) tryAsymptotic(sw core.Switch, opt *core.DispatchOptions) (*core.Result, bool, error) {
	if opt == nil {
		return nil, false, nil
	}
	res, ok, err := core.TryAsymptotic(sw, *opt)
	if err != nil {
		return nil, false, unprocessable("asymptotic tier: %v", err)
	}
	if ok {
		return res, true, nil
	}
	if sw.N1 > s.cfg.MaxDim || sw.N2 > s.cfg.MaxDim {
		return nil, false, unprocessable(
			"switch size %dx%d needs the asymptotic tier, but its error bound exceeds the tolerance %g; raise tolerance or force dispatch=asymptotic",
			sw.N1, sw.N2, effectiveTolerance(opt))
	}
	return nil, false, nil
}

// asymRevenue builds the /v1/revenue reply on the asymptotic tier:
// revenue.AsymAnalysis in place of the lattice-backed Analysis, O(R)
// solves per operating point.
func asymRevenue(req *RevenueRequest, sw core.Switch, step float64) (any, error) {
	an, err := revenue.NewAsymptotic(sw, req.Weights)
	if err != nil {
		return nil, unprocessable("asymptotic tier: %v", err)
	}
	resp := RevenueResponse{N1: sw.N1, N2: sw.N2, W: an.W(), Tier: core.TierAsymptotic}
	for i, c := range sw.Classes {
		shadow, err := an.ShadowCost(i)
		if err != nil {
			return nil, unprocessable("asymptotic tier: %v", err)
		}
		grad, err := an.GradientRhoClosed(i)
		if err != nil {
			return nil, unprocessable("asymptotic tier: %v", err)
		}
		cr := ClassRevenue{
			Name:          req.Classes[i].Name,
			Weight:        req.Weights[i],
			ShadowCost:    shadow,
			Profitable:    req.Weights[i] > shadow,
			GradRhoClosed: grad,
			ErrorBound:    an.Bound(i),
		}
		if req.Gradients && revenue.HasBetaMuGradient(c, sw) {
			g, err := an.GradientBetaMu(i, step)
			if err != nil {
				return nil, unprocessable("asymptotic tier: %v", err)
			}
			cr.GradBetaMu = &g
		}
		resp.Classes = append(resp.Classes, cr)
	}
	return resp, nil
}
