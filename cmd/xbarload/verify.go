package main

// The answer oracle. Before any timing, every distinct generated
// request gets its expected response from the public solver functions;
// every response xbard returns is then compared with it, float64 for
// float64. The server's own tests pin bit-identity between its
// responses and these functions, so any difference is a wrong answer.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"

	"xbar/internal/core"
	"xbar/internal/floats"
	"xbar/internal/grid"
	"xbar/internal/parallel"
	"xbar/internal/revenue"
	"xbar/internal/scenario"
	"xbar/internal/server"
)

// outcome is how a request was served, as its response reports it.
type outcome uint8

const (
	outHit outcome = iota
	outMiss
	outAsymptotic
	outForwarded
	outFailed
)

var outcomeNames = [...]string{"hit", "miss", "asymptotic", "forwarded", "failed"}

// verdict is what a checked response says about how it was served.
type verdict struct {
	out            outcome
	models, cached int // /v1/grid: lattice groups, and how many were cached
}

// solveAll computes every request's expected response, one worker per
// core.
func solveAll(reqs []request) error {
	return parallel.ForEachWorker(0, len(reqs), func(_, i int) error { return reqs[i].solve() })
}

func (rq *request) solve() error {
	var err error
	switch in := rq.in.(type) {
	case *server.BlockingRequest:
		rq.want, err = normalized(wantBlocking(in))
	case *server.RevenueRequest:
		rq.want, err = normalized(wantRevenue(in))
	case *server.AdmissionRequest:
		rq.want, err = normalized(wantAdmission(in))
	case *server.SweepRequest:
		rq.want, err = normalized(wantSweep(in))
	case *server.GridRequest:
		rq.want, err = normalized(wantGrid(in))
	case *scenario.Spec:
		rq.want, err = normalized(wantScenario(in))
	default:
		err = fmt.Errorf("no oracle for %T", rq.in)
	}
	if err != nil {
		return fmt.Errorf("reference answer for %s %s: %w", rq.ep.path(), clip(rq.body), err)
	}
	return nil
}

// normalized passes an expected response through JSON once, so that it
// holds exactly what a decoded response holds (absent optional fields
// as nil, floats as the encoder rounds them: exactly).
func normalized[T any](v *T, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	out := new(T)
	if err := json.Unmarshal(data, out); err != nil {
		return nil, err
	}
	return out, nil
}

// check compares a 2xx response body with the request's expected
// response. The fields that depend on cache state (cached, and the
// grid's cached count) are taken out of the comparison and reported in
// the verdict instead.
func check(rq *request, body []byte) (verdict, error) {
	switch want := rq.want.(type) {
	case *server.BlockingResponse:
		return compare(body, want, func(r *server.BlockingResponse) verdict {
			v := cacheVerdict(r.Cached)
			if r.Tier == core.TierAsymptotic {
				v.out = outAsymptotic
			}
			r.Cached = false
			return v
		})
	case *server.RevenueResponse:
		return compare(body, want, func(r *server.RevenueResponse) verdict {
			v := cacheVerdict(r.Cached)
			r.Cached = false
			return v
		})
	case *server.AdmissionResponse:
		return compare(body, want, func(r *server.AdmissionResponse) verdict {
			v := cacheVerdict(r.Cached)
			r.Cached = false
			return v
		})
	case *server.SweepResponse:
		return compare(body, want, func(r *server.SweepResponse) verdict {
			v := cacheVerdict(r.Cached)
			r.Cached = false
			return v
		})
	case *server.GridResponse:
		return compare(body, want, func(r *server.GridResponse) verdict {
			v := verdict{out: outMiss, models: r.Models, cached: r.Cached}
			if r.Cached == r.Models {
				v.out = outHit
			}
			r.Cached = 0
			return v
		})
	case *server.ScenarioResponse:
		return compare(body, want, func(r *server.ScenarioResponse) verdict {
			v := cacheVerdict(r.Cached)
			r.Cached = false
			return v
		})
	}
	return verdict{out: outFailed}, fmt.Errorf("no reference answer for %s", rq.ep.path())
}

func cacheVerdict(cached bool) verdict {
	if cached {
		return verdict{out: outHit}
	}
	return verdict{out: outMiss}
}

func compare[T any](body []byte, want *T, strip func(*T) verdict) (verdict, error) {
	got := new(T)
	if err := json.Unmarshal(body, got); err != nil {
		return verdict{out: outFailed}, fmt.Errorf("decoding response %s: %w", clip(body), err)
	}
	v := strip(got)
	if !reflect.DeepEqual(got, want) {
		exp, err := json.Marshal(want)
		if err != nil {
			return verdict{out: outFailed}, err
		}
		return verdict{out: outFailed}, fmt.Errorf("response %s differs from the reference answer %s", clip(body), clip(exp))
	}
	return v, nil
}

// clip shortens a body for an error message.
func clip(b []byte) string {
	const n = 240
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// switchOf converts a request's switch as xbard does: aggregate units
// through core.NewSwitch, route units verbatim, then Validate.
func switchOf(spec server.SwitchSpec) (core.Switch, error) {
	var sw core.Switch
	switch spec.Units {
	case "", "aggregate":
		agg := make([]core.AggregateClass, len(spec.Classes))
		for i, c := range spec.Classes {
			agg[i] = core.AggregateClass{Name: c.Name, A: c.A, AlphaTilde: c.Alpha, BetaTilde: c.Beta, Mu: c.Mu}
		}
		sw = core.NewSwitch(spec.N1, spec.N2, agg...)
	case "route":
		classes := make([]core.Class, len(spec.Classes))
		for i, c := range spec.Classes {
			classes[i] = core.Class{Name: c.Name, A: c.A, Alpha: c.Alpha, Beta: c.Beta, Mu: c.Mu}
		}
		sw = core.Switch{N1: spec.N1, N2: spec.N2, Classes: classes}
	default:
		return core.Switch{}, fmt.Errorf("units %q", spec.Units)
	}
	if err := sw.Validate(); err != nil {
		return core.Switch{}, err
	}
	return sw, nil
}

func wantBlocking(in *server.BlockingRequest) (*server.BlockingResponse, error) {
	sw, err := switchOf(in.SwitchSpec)
	if err != nil {
		return nil, err
	}
	var res *core.Result
	switch {
	case in.Dispatch != "":
		pol, err := core.ParseDispatch(in.Dispatch)
		if err != nil {
			return nil, err
		}
		var ok bool
		res, ok, err = core.TryAsymptotic(sw, core.DispatchOptions{Policy: pol})
		if err == nil && !ok {
			err = errors.New("model is not answered by the asymptotic tier")
		}
		if err != nil {
			return nil, err
		}
	case in.Algorithm == alg2:
		res, err = core.SolveMVA(sw)
	default:
		res, err = core.Solve(sw)
	}
	if err != nil {
		return nil, err
	}
	return &server.BlockingResponse{
		N1: sw.N1, N2: sw.N2,
		Method:      res.Method,
		Tier:        res.Tier,
		LogG:        res.LogG,
		Utilization: res.Utilization(),
		Classes:     classResults(in.SwitchSpec, res),
	}, nil
}

func classResults(spec server.SwitchSpec, res *core.Result) []server.ClassResult {
	out := make([]server.ClassResult, len(res.Blocking))
	for i := range out {
		out[i] = server.ClassResult{
			Name:        spec.Classes[i].Name,
			A:           spec.Classes[i].A,
			Blocking:    res.Blocking[i],
			NonBlocking: res.NonBlocking[i],
			Concurrency: res.Concurrency[i],
			Throughput:  res.Throughput(i),
		}
		if res.ErrorBound != nil {
			out[i].ErrorBound = res.ErrorBound[i]
		}
	}
	return out
}

// defaultStep is xbard's gradient step when a request leaves it out.
const defaultStep = 1e-4

func wantRevenue(in *server.RevenueRequest) (*server.RevenueResponse, error) {
	sw, err := switchOf(in.SwitchSpec)
	if err != nil {
		return nil, err
	}
	an, err := revenue.New(sw, in.Weights)
	if err != nil {
		return nil, err
	}
	step := in.Step
	if floats.Zero(step) {
		step = defaultStep
	}
	resp := &server.RevenueResponse{N1: sw.N1, N2: sw.N2, W: an.W()}
	for i, c := range sw.Classes {
		cr := server.ClassRevenue{
			Name:          in.Classes[i].Name,
			Weight:        in.Weights[i],
			ShadowCost:    an.ShadowCost(i),
			Profitable:    an.Profitable(i),
			GradRhoClosed: an.GradientRhoClosed(i),
		}
		if in.Gradients && !c.IsPoisson() && sw.MinN() >= 2 {
			g := an.GradientBetaMu(i, step)
			cr.GradBetaMu = &g
		}
		resp.Classes = append(resp.Classes, cr)
	}
	return resp, nil
}

func wantAdmission(in *server.AdmissionRequest) (*server.AdmissionResponse, error) {
	sw, err := switchOf(in.SwitchSpec)
	if err != nil {
		return nil, err
	}
	an, err := revenue.New(sw, in.Weights)
	if err != nil {
		return nil, err
	}
	shadow := an.ShadowCost(in.Class)
	weight := in.Weights[in.Class]
	return &server.AdmissionResponse{
		Accept: an.Profitable(in.Class), Policy: "profitability", Class: in.Class,
		Weight: &weight, ShadowCost: &shadow,
	}, nil
}

func wantSweep(in *server.SweepRequest) (*server.SweepResponse, error) {
	sw, err := switchOf(in.SwitchSpec)
	if err != nil {
		return nil, err
	}
	var at func(n1, n2 int) *core.Result
	if in.Algorithm == alg2 {
		s, err := core.NewMVASweepSolver(sw)
		if err != nil {
			return nil, err
		}
		at = s.ResultAt
	} else {
		s, err := core.NewSweepSolver(sw)
		if err != nil {
			return nil, err
		}
		at = s.ResultAt
	}
	resp := &server.SweepResponse{N1: sw.N1, N2: sw.N2, Method: at(sw.N1, sw.N2).Method}
	for _, p := range in.Points {
		res := at(p.N1, p.N2)
		row := server.SweepResult{N1: p.N1, N2: p.N2, Tier: res.Tier, Blocking: res.Blocking, Concurrency: res.Concurrency, ErrorBound: res.ErrorBound}
		if in.Weights != nil {
			w := res.Revenue(in.Weights)
			row.W = &w
		}
		resp.Results = append(resp.Results, row)
	}
	return resp, nil
}

// gridDeltas converts a grid request's points to grid.Engine deltas;
// with per-route units the two apply identically.
func gridDeltas(in *server.GridRequest) []grid.PointDelta {
	deltas := make([]grid.PointDelta, len(in.Points))
	for i, p := range in.Points {
		deltas[i] = grid.PointDelta{N1: p.N1, N2: p.N2}
		for _, c := range p.Classes {
			deltas[i].Classes = append(deltas[i].Classes, grid.ClassDelta{Class: c.Class, Alpha: c.Alpha, Beta: c.Beta, Mu: c.Mu})
		}
	}
	return deltas
}

func wantGrid(in *server.GridRequest) (*server.GridResponse, error) {
	base, err := switchOf(in.SwitchSpec)
	if err != nil {
		return nil, err
	}
	deltas := gridDeltas(in)
	points, err := grid.Points(base, deltas)
	if err != nil {
		return nil, err
	}
	res, err := grid.New(grid.Options{}).SolveDeltas(base, deltas)
	if err != nil {
		return nil, err
	}
	groups := make(map[string]bool)
	resp := &server.GridResponse{Method: res[0].Method, Points: len(points)}
	for i, r := range res {
		groups[grid.ClassKey(points[i].Classes)] = true
		row := server.GridResult{N1: points[i].N1, N2: points[i].N2, Tier: r.Tier, Blocking: r.Blocking, Concurrency: r.Concurrency, ErrorBound: r.ErrorBound}
		if in.Weights != nil {
			w := r.Revenue(in.Weights)
			row.W = &w
		}
		resp.Results = append(resp.Results, row)
	}
	resp.Models = len(groups)
	return resp, nil
}

func wantScenario(in *scenario.Spec) (*server.ScenarioResponse, error) {
	res, err := scenario.Evaluate(in)
	if err != nil {
		return nil, err
	}
	resp := &server.ScenarioResponse{Discipline: res.Discipline, Measures: []server.ScenarioMeasure{}}
	for _, m := range res.Measures {
		if finite(m.Value) && finite(m.HalfWidth) {
			resp.Measures = append(resp.Measures, server.ScenarioMeasure{Name: m.Name, Value: m.Value, HalfWidth: m.HalfWidth})
		} else {
			resp.Omitted = append(resp.Omitted, m.Name)
		}
	}
	return resp, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
