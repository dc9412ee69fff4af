package server

import (
	"errors"
	"fmt"

	"xbar/internal/core"
	"xbar/internal/grid"
)

// GridClassDelta overrides selected parameters of one base class for
// one grid point. Nil fields keep the base value; the overrides are in
// the request's units (aggregate or route, per SwitchSpec.Units).
type GridClassDelta struct {
	Class int      `json:"class"`
	Alpha *float64 `json:"alpha,omitempty"`
	Beta  *float64 `json:"beta,omitempty"`
	Mu    *float64 `json:"mu,omitempty"`
}

// GridPoint is one point of a batched evaluation, described relative
// to the request's base switch: zero dimensions keep the base
// dimension, and Classes lists the parameters that moved. The empty
// GridPoint is the base switch itself.
type GridPoint struct {
	N1      int              `json:"n1,omitempty"`
	N2      int              `json:"n2,omitempty"`
	Classes []GridClassDelta `json:"classes,omitempty"`
}

// GridRequest is the POST /v1/grid body: a base switch plus per-point
// deltas — the wire form of a parameter grid (a figure's curve family,
// an optimizer's line search). Points that canonicalize to the same
// per-route model, or that differ only in dimensions, share one
// lattice fill through the solver cache. Weights, when present, adds
// the revenue W at every point.
type GridRequest struct {
	SwitchSpec
	DispatchSpec
	Algorithm string      `json:"algorithm,omitempty"`
	Points    []GridPoint `json:"points"`
	Weights   []float64   `json:"weights,omitempty"`
}

// GridResult is one point of the grid reply, in request point order:
// the sweep row, since both endpoints read sub-switch measures off one
// lattice entry.
type GridResult = SweepResult

// GridResponse is the POST /v1/grid reply. Models counts the distinct
// lattice fills the batch reduced to; Cached counts how many of those
// were already resident in (or in flight on) the solver cache;
// Asymptotic counts the points the saddle-point tier answered without
// any lattice.
type GridResponse struct {
	Method     string       `json:"method"`
	Points     int          `json:"points"`
	Models     int          `json:"models"`
	Cached     int          `json:"cached"`
	Asymptotic int          `json:"asymptotic,omitempty"`
	Results    []GridResult `json:"results"`
}

// applyGridPoint materializes one point's SwitchSpec. Deltas apply to
// the spec (pre-conversion), so aggregate-units loads are re-normalized
// against the point's own dimensions, exactly as if the client had
// sent the materialized spec to /v1/blocking.
func applyGridPoint(base SwitchSpec, p GridPoint) (SwitchSpec, error) {
	spec := base
	if p.N1 != 0 {
		spec.N1 = p.N1
	}
	if p.N2 != 0 {
		spec.N2 = p.N2
	}
	if len(p.Classes) > 0 {
		spec.Classes = append([]ClassSpec(nil), base.Classes...)
		for _, d := range p.Classes {
			if d.Class < 0 || d.Class >= len(spec.Classes) {
				return SwitchSpec{}, badRequest("class delta index %d out of range [0,%d)", d.Class, len(spec.Classes))
			}
			c := &spec.Classes[d.Class]
			if d.Alpha != nil {
				c.Alpha = *d.Alpha
			}
			if d.Beta != nil {
				c.Beta = *d.Beta
			}
			if d.Mu != nil {
				c.Mu = *d.Mu
			}
		}
	}
	return spec, nil
}

// pointError prefixes a client-facing error with the offending point
// ("point 3", "sweep point 64x64"), preserving its status code.
func pointError(point string, err error) error {
	var api *apiError
	if errors.As(err, &api) {
		return &apiError{code: api.code, msg: point + ": " + api.msg}
	}
	return err
}

// gridGroup is one distinct canonical class set of a grid request: all
// its points are read off one cache entry filled at the componentwise
// maximum dimensions.
type gridGroup struct {
	classes []core.Class
	n1, n2  int
	members []int // request point indices
}

func (s *Server) handleGrid(c call, req *GridRequest) (any, error) {
	alg, err := normalizeAlg(req.Algorithm)
	if err != nil {
		return nil, err
	}
	if len(req.Points) == 0 {
		return nil, badRequest("no grid points")
	}
	if len(req.Points) > s.cfg.MaxGridPoints {
		return nil, badRequest("%d grid points exceed the server limit %d", len(req.Points), s.cfg.MaxGridPoints)
	}
	if req.Weights != nil {
		if err := checkWeights(req.Weights, len(req.Classes)); err != nil {
			return nil, err
		}
	}

	opt, err := s.parseDispatch(req.DispatchSpec)
	if err != nil {
		return nil, err
	}

	// Materialize and validate every point, then group by canonical
	// class key: points differing only in dimensions (or in nothing the
	// solver reads) share one entry at the group maximum. Under a
	// dispatch policy the tier is decided per point first, and
	// asymptotic points join no group — one huge point cannot inflate
	// a group's fill dimensions.
	points := make([]core.Switch, len(req.Points))
	groups := make(map[string]*gridGroup)
	var order []*gridGroup
	resp := GridResponse{Points: len(req.Points), Results: make([]GridResult, len(req.Points))}
	for i, p := range req.Points {
		spec, err := applyGridPoint(req.SwitchSpec, p)
		if err != nil {
			return nil, pointError(fmt.Sprintf("point %d", i), err)
		}
		sw, err := s.buildSwitchFor(spec, opt)
		if err != nil {
			return nil, pointError(fmt.Sprintf("point %d", i), err)
		}
		points[i] = sw
		if opt != nil {
			res, ok, err := s.tryAsymptotic(sw, opt)
			if err != nil {
				return nil, pointError(fmt.Sprintf("point %d", i), err)
			}
			if ok {
				resp.Results[i] = resultRow(sw.N1, sw.N2, res, req.Weights)
				resp.Asymptotic++
				continue
			}
		}
		ck := grid.ClassKey(sw.Classes)
		g, ok := groups[ck]
		if !ok {
			g = &gridGroup{classes: sw.Classes}
			groups[ck] = g
			order = append(order, g)
		}
		g.n1 = max(g.n1, sw.N1)
		g.n2 = max(g.n2, sw.N2)
		g.members = append(g.members, i)
	}
	resp.Models = len(order)
	if len(order) == 0 {
		resp.Method = "asymptotic"
		return resp, nil
	}
	// The request is forwarded only when every group entry lives on
	// one peer; mixed ownership computes locally — correct, just less
	// fleet-wide dedup.
	sws := make([]core.Switch, len(order))
	for k, g := range order {
		sws[k] = core.Switch{N1: g.n1, N2: g.n2, Classes: g.classes}
	}
	if ok, err := c.exact(alg, sws, func(k int, e *solverEntry, cached bool) error {
		if cached {
			resp.Cached++
		}
		resp.Method = e.result().Method
		for _, i := range order[k].members {
			resp.Results[i] = exactRow(points[i].N1, points[i].N2, e.resultAt(points[i].N1, points[i].N2), req.Weights, opt)
		}
		return nil
	}); !ok || err != nil {
		return nil, err
	}
	return resp, nil
}
