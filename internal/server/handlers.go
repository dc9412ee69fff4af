package server

import (
	"fmt"
	"math"
	"net/http"
	"slices"

	"xbar/internal/admission"
	"xbar/internal/core"
	"xbar/internal/floats"
	"xbar/internal/revenue"
)

// ClassSpec is one traffic class of a request. Alpha and Beta are
// interpreted per SwitchSpec.Units: aggregate ("tilde", the paper's
// numerical convention and the default) or per-route.
type ClassSpec struct {
	Name  string  `json:"name,omitempty"`
	A     int     `json:"a"`
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta,omitempty"`
	Mu    float64 `json:"mu"`
}

// SwitchSpec is the model every /v1 request carries.
type SwitchSpec struct {
	N1      int         `json:"n1"`
	N2      int         `json:"n2"`
	Units   string      `json:"units,omitempty"` // "aggregate" (default) or "route"
	Classes []ClassSpec `json:"classes"`
}

// apiError carries an HTTP status with a client-facing message, and
// optionally the whole response document in place of the standard
// {"error": msg}.
type apiError struct {
	code int
	msg  string
	doc  any
}

func (e *apiError) Error() string { return e.msg }

// document is the error's response body.
func (e *apiError) document() any {
	if e.doc != nil {
		return e.doc
	}
	return map[string]string{"error": e.msg}
}

func badRequest(format string, args ...any) error {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// buildSwitchFor validates a SwitchSpec against the server limits
// and the model constraints under a dispatch policy (the dimension cap
// follows the policy, checkDims; nil is the legacy exact path) and
// converts it to per-route units. Every float is checked finite up
// front — the solvers' nanguard domain preconditions (finite,
// validated inputs) are enforced at the edge.
func (s *Server) buildSwitchFor(spec SwitchSpec, opt *core.DispatchOptions) (core.Switch, error) {
	if spec.N1 < 1 || spec.N2 < 1 {
		return core.Switch{}, badRequest("switch dimensions %dx%d, must be >= 1x1", spec.N1, spec.N2)
	}
	if err := s.checkDims(spec.N1, spec.N2, opt); err != nil {
		return core.Switch{}, err
	}
	if len(spec.Classes) == 0 {
		return core.Switch{}, badRequest("no traffic classes")
	}
	if len(spec.Classes) > s.cfg.MaxClasses {
		return core.Switch{}, badRequest("%d traffic classes exceed the server limit %d", len(spec.Classes), s.cfg.MaxClasses)
	}
	for i, c := range spec.Classes {
		if !finite(c.Alpha) || !finite(c.Beta) || !finite(c.Mu) {
			return core.Switch{}, badRequest("class %d (%s): alpha, beta and mu must be finite", i, c.Name)
		}
		if c.A < 1 {
			return core.Switch{}, badRequest("class %d (%s): a = %d, must be >= 1", i, c.Name, c.A)
		}
	}
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
		return core.Switch{}, badRequest("units %q, want \"aggregate\" or \"route\"", spec.Units)
	}
	if err := sw.Validate(); err != nil {
		return core.Switch{}, &apiError{code: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	return sw, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// normalizeAlg maps the accepted algorithm spellings onto the cache's
// two identifiers; /v1/blocking and /v1/sweep default to Algorithm 1.
func normalizeAlg(a string) (string, error) {
	switch a {
	case "", alg1, "algorithm1":
		return alg1, nil
	case alg2, "algorithm2":
		return alg2, nil
	}
	return "", badRequest("algorithm %q, want alg1 or alg2", a)
}

// ClassResult is one class's measures in a response, in request class
// order. Names are echoed from the request, not the cache: cache keys
// canonicalize names away.
type ClassResult struct {
	Name        string  `json:"name,omitempty"`
	A           int     `json:"a"`
	Blocking    float64 `json:"blocking"`
	NonBlocking float64 `json:"non_blocking"`
	Concurrency float64 `json:"concurrency"`
	Throughput  float64 `json:"throughput"`
	// ErrorBound is the asymptotic tier's self-reported relative-error
	// bound for this class's measures; present only on asymptotic
	// answers.
	ErrorBound float64 `json:"error_bound,omitempty"`
}

func classResults(spec SwitchSpec, res *core.Result) []ClassResult {
	out := make([]ClassResult, len(res.Blocking))
	for i := range out {
		out[i] = ClassResult{
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

// BlockingRequest is the POST /v1/blocking body.
type BlockingRequest struct {
	SwitchSpec
	DispatchSpec
	Algorithm string `json:"algorithm,omitempty"`
}

// BlockingResponse is the POST /v1/blocking reply. Tier is present
// when the request carried a dispatch policy and names the tier that
// answered ("exact" or "asymptotic").
type BlockingResponse struct {
	N1          int           `json:"n1"`
	N2          int           `json:"n2"`
	Method      string        `json:"method"`
	Tier        string        `json:"tier,omitempty"`
	LogG        float64       `json:"log_g"`
	Utilization float64       `json:"utilization"`
	Cached      bool          `json:"cached"`
	Classes     []ClassResult `json:"classes"`
}

// blockingResponse renders one Result as the /v1/blocking reply.
func blockingResponse(spec SwitchSpec, sw core.Switch, res *core.Result) BlockingResponse {
	return BlockingResponse{
		N1: sw.N1, N2: sw.N2,
		Method:      res.Method,
		Tier:        res.Tier,
		LogG:        res.LogG,
		Utilization: res.Utilization(),
		Classes:     classResults(spec, res),
	}
}

func (s *Server) handleBlocking(c call, req *BlockingRequest) (any, error) {
	alg, err := normalizeAlg(req.Algorithm)
	if err != nil {
		return nil, err
	}
	sw, opt, err := s.model(req.SwitchSpec, req.DispatchSpec)
	if err != nil {
		return nil, err
	}
	if res, ok, err := s.tryAsymptotic(sw, opt); err != nil {
		return nil, err
	} else if ok {
		return blockingResponse(req.SwitchSpec, sw, res), nil
	}
	var resp BlockingResponse
	if ok, err := c.exact(alg, []core.Switch{sw}, func(_ int, e *solverEntry, cached bool) error {
		resp = blockingResponse(req.SwitchSpec, sw, e.result())
		resp.Cached = cached
		if opt != nil {
			resp.Tier = core.TierExact
		}
		return nil
	}); !ok || err != nil {
		return nil, err
	}
	return resp, nil
}

// RevenueRequest is the POST /v1/revenue body. Weights must carry one
// revenue rate per class. Gradients requests the numerical
// dW/d(beta/mu) central differences for Pascal (peaky, beta > 0)
// classes on top of the closed-form dW/drho — they cost extra lattice
// fills per Pascal class, the in-lattice reads do not.
type RevenueRequest struct {
	SwitchSpec
	DispatchSpec
	Weights   []float64 `json:"weights"`
	Gradients bool      `json:"gradients,omitempty"`
	Step      float64   `json:"step,omitempty"`
}

// ClassRevenue is one class's revenue measures.
type ClassRevenue struct {
	Name          string   `json:"name,omitempty"`
	Weight        float64  `json:"weight"`
	ShadowCost    float64  `json:"shadow_cost"`
	Profitable    bool     `json:"profitable"`
	GradRhoClosed float64  `json:"grad_rho_closed"`
	GradBetaMu    *float64 `json:"grad_beta_mu,omitempty"`
	// ErrorBound is the asymptotic tier's relative-error bound on the
	// class's underlying measures (see revenue.AsymAnalysis on what it
	// does and does not certify); present only on asymptotic answers.
	ErrorBound float64 `json:"error_bound,omitempty"`
}

// RevenueResponse is the POST /v1/revenue reply. Tier is present when
// the request carried a dispatch policy.
type RevenueResponse struct {
	N1      int            `json:"n1"`
	N2      int            `json:"n2"`
	W       float64        `json:"w"`
	Tier    string         `json:"tier,omitempty"`
	Cached  bool           `json:"cached"`
	Classes []ClassRevenue `json:"classes"`
}

func (s *Server) handleRevenue(c call, req *RevenueRequest) (any, error) {
	sw, opt, err := s.model(req.SwitchSpec, req.DispatchSpec)
	if err != nil {
		return nil, err
	}
	if err := checkWeights(req.Weights, len(sw.Classes)); err != nil {
		return nil, err
	}
	step := req.Step
	if floats.Zero(step) {
		step = 1e-4 // omitted (or numerically zero): the default
	}
	if !finite(step) || step <= 0 || step > 0.1 {
		return nil, badRequest("step %v, want 0 < step <= 0.1", req.Step)
	}
	if _, ok, err := s.tryAsymptotic(sw, opt); err != nil {
		return nil, err
	} else if ok {
		return asymRevenue(req, sw, step)
	}
	// Revenue rides the Algorithm 1 cache: the analysis's in-lattice
	// reads and gradient re-solves run on the scaled lattice.
	resp := RevenueResponse{N1: sw.N1, N2: sw.N2}
	if opt != nil {
		resp.Tier = core.TierExact
	}
	if ok, err := c.exact(alg1, []core.Switch{sw}, func(_ int, e *solverEntry, cached bool) error {
		an, err := revenue.NewWithSweep(e.sweep, req.Weights)
		if err != nil {
			return badRequest("%v", err)
		}
		resp.W, resp.Cached = an.W(), cached
		if req.Gradients && slices.ContainsFunc(sw.Classes, func(cl core.Class) bool {
			return revenue.HasBetaMuGradient(cl, sw)
		}) {
			// The beta/mu gradients re-solve the lattice, so they take
			// a solve slot like every other fill.
			release, err := c.acquire()
			if err != nil {
				return overloaded(err)
			}
			defer release()
		}
		for i, c := range sw.Classes {
			cr := ClassRevenue{
				Name:          req.Classes[i].Name,
				Weight:        req.Weights[i],
				ShadowCost:    an.ShadowCost(i),
				Profitable:    an.Profitable(i),
				GradRhoClosed: an.GradientRhoClosed(i),
			}
			if req.Gradients && revenue.HasBetaMuGradient(c, sw) {
				g := an.GradientBetaMu(i, step)
				if math.IsNaN(g) {
					return unprocessable("class %d (%s): gradient step %v takes beta/mu outside the valid parameter region",
						i, req.Classes[i].Name, step)
				}
				cr.GradBetaMu = &g
			}
			resp.Classes = append(resp.Classes, cr)
		}
		return nil
	}); !ok || err != nil {
		return nil, err
	}
	return resp, nil
}

// AdmissionRequest is the POST /v1/admission body: should a class-r
// request be accepted? Two policies:
//
//   - "profitability" (default): accept iff w_r exceeds the shadow
//     cost DeltaW_r(N) — the paper's Section 4 economics. Requires
//     Weights; served off the Algorithm 1 cache.
//   - "reservation": trunk reservation — accept iff the
//     post-acceptance occupancy stays within Limits[r], given the
//     current per-class connection counts State (default: empty
//     switch). Pure arithmetic, no solve.
type AdmissionRequest struct {
	SwitchSpec
	DispatchSpec
	Class   int       `json:"class"`
	Policy  string    `json:"policy,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
	Limits  []int     `json:"limits,omitempty"`
	State   []int     `json:"state,omitempty"`
}

// AdmissionResponse is the POST /v1/admission reply. Tier is present
// when the request carried a dispatch policy and a solve ran (the
// reservation policy is pure arithmetic — no tier).
type AdmissionResponse struct {
	Accept     bool     `json:"accept"`
	Policy     string   `json:"policy"`
	Class      int      `json:"class"`
	Tier       string   `json:"tier,omitempty"`
	Weight     *float64 `json:"weight,omitempty"`
	ShadowCost *float64 `json:"shadow_cost,omitempty"`
	Occupancy  *int     `json:"occupancy,omitempty"`
	Cached     bool     `json:"cached"`
}

func (s *Server) handleAdmission(c call, req *AdmissionRequest) (any, error) {
	sw, opt, err := s.model(req.SwitchSpec, req.DispatchSpec)
	if err != nil {
		return nil, err
	}
	if req.Class < 0 || req.Class >= len(sw.Classes) {
		return nil, badRequest("class %d of %d", req.Class, len(sw.Classes))
	}
	switch req.Policy {
	case "", "profitability":
		if err := checkWeights(req.Weights, len(sw.Classes)); err != nil {
			return nil, err
		}
		resp := AdmissionResponse{Policy: "profitability", Class: req.Class, Weight: &req.Weights[req.Class]}
		if _, ok, err := s.tryAsymptotic(sw, opt); err != nil {
			return nil, err
		} else if ok {
			an, err := revenue.NewAsymptotic(sw, req.Weights)
			if err != nil {
				return nil, unprocessable("asymptotic tier: %v", err)
			}
			shadow, err := an.ShadowCost(req.Class)
			if err != nil {
				return nil, unprocessable("asymptotic tier: %v", err)
			}
			resp.Accept, resp.Tier, resp.ShadowCost = req.Weights[req.Class] > shadow, core.TierAsymptotic, &shadow
			return resp, nil
		}
		if opt != nil {
			resp.Tier = core.TierExact
		}
		if ok, err := c.exact(alg1, []core.Switch{sw}, func(_ int, e *solverEntry, cached bool) error {
			an, err := revenue.NewWithSweep(e.sweep, req.Weights)
			if err != nil {
				return badRequest("%v", err)
			}
			shadow := an.ShadowCost(req.Class)
			resp.Accept, resp.ShadowCost, resp.Cached = an.Profitable(req.Class), &shadow, cached
			return nil
		}); !ok || err != nil {
			return nil, err
		}
		return resp, nil
	case "reservation":
		if len(req.Limits) != len(sw.Classes) {
			return nil, badRequest("reservation policy wants %d limits, got %d", len(sw.Classes), len(req.Limits))
		}
		state := req.State
		if state == nil {
			state = make([]int, len(sw.Classes))
		}
		if len(state) != len(sw.Classes) {
			return nil, badRequest("state wants %d per-class counts, got %d", len(sw.Classes), len(state))
		}
		// Bounding every count by what the switch can hold keeps the
		// occupancy sum below MaxClasses * MaxDim, far from overflow.
		for i, k := range state {
			if k < 0 {
				return nil, badRequest("state[%d] = %d is negative", i, k)
			}
			if most := sw.MinN() / sw.Classes[i].A; k > most {
				return nil, badRequest("state[%d] = %d exceeds the %d class-%d connections the switch holds", i, k, most, i)
			}
		}
		occ := sw.OccupancyOf(state)
		if occ > sw.MinN() {
			return nil, badRequest("state occupies %d of %d ports", occ, sw.MinN())
		}
		policy, err := admission.TrunkReservation(sw, req.Limits)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		// The policy admits within the reservation limit; port
		// contention still rejects when the switch itself is full.
		accept := policy(state, req.Class) && occ+sw.Classes[req.Class].A <= sw.MinN()
		return AdmissionResponse{Accept: accept, Policy: "reservation", Class: req.Class, Occupancy: &occ}, nil
	}
	return nil, badRequest("policy %q, want profitability or reservation", req.Policy)
}

// SweepPoint selects one sub-switch of a sweep.
type SweepPoint struct {
	N1 int `json:"n1"`
	N2 int `json:"n2"`
}

// SweepRequest is the POST /v1/sweep body: one lattice fill at
// (N1, N2), results for every requested sub-size with the same
// per-route classes (core.SweepSolver semantics — aggregate loads are
// converted once at the full size, not re-normalized per point).
// Empty Points means the square diagonal (1,1)..(minN,minN). Weights,
// when present, adds the revenue W at every point.
type SweepRequest struct {
	SwitchSpec
	DispatchSpec
	Algorithm string       `json:"algorithm,omitempty"`
	Points    []SweepPoint `json:"points,omitempty"`
	Weights   []float64    `json:"weights,omitempty"`
}

// SweepResult is one point of a sweep or grid reply. Blocking and
// Concurrency are in request class order. (No throughput: grid points
// sharing a fill may differ in mu, and blocking, concurrency and W are
// the mu-invariant measures.) Tier is present when the request carried
// a dispatch policy — the decision is per point, so one reply can mix
// exact points with asymptotic ones — and ErrorBound accompanies
// asymptotic points.
type SweepResult struct {
	N1          int       `json:"n1"`
	N2          int       `json:"n2"`
	Tier        string    `json:"tier,omitempty"`
	Blocking    []float64 `json:"blocking"`
	Concurrency []float64 `json:"concurrency"`
	ErrorBound  []float64 `json:"error_bound,omitempty"`
	W           *float64  `json:"w,omitempty"`
}

// SweepResponse is the POST /v1/sweep reply.
type SweepResponse struct {
	N1      int           `json:"n1"`
	N2      int           `json:"n2"`
	Method  string        `json:"method"`
	Cached  bool          `json:"cached"`
	Results []SweepResult `json:"results"`
}

func (s *Server) handleSweep(c call, req *SweepRequest) (any, error) {
	alg, err := normalizeAlg(req.Algorithm)
	if err != nil {
		return nil, err
	}
	sw, opt, err := s.model(req.SwitchSpec, req.DispatchSpec)
	if err != nil {
		return nil, err
	}
	// The default point list is every sub-size 1..MinN; the cap is
	// checked before it is allocated.
	n := len(req.Points)
	if n == 0 {
		n = sw.MinN()
	}
	if n > s.cfg.MaxSweepPoints {
		return nil, badRequest("%d sweep points exceed the server limit %d", n, s.cfg.MaxSweepPoints)
	}
	points := req.Points
	if len(points) == 0 {
		points = make([]SweepPoint, n)
		for i := range points {
			points[i] = SweepPoint{N1: i + 1, N2: i + 1}
		}
	}
	for _, p := range points {
		if p.N1 < 1 || p.N2 < 1 || p.N1 > sw.N1 || p.N2 > sw.N2 {
			return nil, badRequest("sweep point %dx%d outside the %dx%d lattice", p.N1, p.N2, sw.N1, sw.N2)
		}
	}
	if req.Weights != nil {
		if err := checkWeights(req.Weights, len(sw.Classes)); err != nil {
			return nil, err
		}
	}
	// Dispatch is decided per point: points the expansion answers
	// within tolerance never touch the lattice, and — as in the grid
	// engine — they do not inflate the fill, which runs at the maximum
	// dimensions of the exact-routed points only.
	resp := SweepResponse{N1: sw.N1, N2: sw.N2, Results: make([]SweepResult, len(points))}
	var asym []bool
	entrySw := sw
	if opt != nil {
		asym = make([]bool, len(points))
		emax1, emax2 := 0, 0
		for i, p := range points {
			sub := core.Switch{N1: p.N1, N2: p.N2, Classes: sw.Classes}
			res, ok, err := s.tryAsymptotic(sub, opt)
			if err != nil {
				return nil, pointError(fmt.Sprintf("sweep point %dx%d", p.N1, p.N2), err)
			}
			if ok {
				asym[i] = true
				resp.Results[i] = resultRow(p.N1, p.N2, res, req.Weights)
				continue
			}
			emax1, emax2 = max(emax1, p.N1), max(emax2, p.N2)
		}
		if emax1 == 0 {
			// Every point went asymptotic: no lattice, no cache entry.
			resp.Method = "asymptotic"
			return resp, nil
		}
		entrySw = core.Switch{N1: emax1, N2: emax2, Classes: sw.Classes}
	}
	if ok, err := c.exact(alg, []core.Switch{entrySw}, func(_ int, e *solverEntry, cached bool) error {
		resp.Method, resp.Cached = e.result().Method, cached
		for i, p := range points {
			if asym == nil || !asym[i] {
				resp.Results[i] = exactRow(p.N1, p.N2, e.resultAt(p.N1, p.N2), req.Weights, opt)
			}
		}
		return nil
	}); !ok || err != nil {
		return nil, err
	}
	return resp, nil
}

// checkWeights validates a request's revenue weights: one finite
// weight per class.
func checkWeights(weights []float64, classes int) error {
	if len(weights) != classes {
		return badRequest("%d weights for %d classes", len(weights), classes)
	}
	for i, wt := range weights {
		if !finite(wt) {
			return badRequest("weight %d is not finite", i)
		}
	}
	return nil
}

// exactRow is resultRow for a point read off a lattice entry: under a
// dispatch policy the row names the exact tier.
func exactRow(n1, n2 int, res *core.Result, weights []float64, opt *core.DispatchOptions) SweepResult {
	row := resultRow(n1, n2, res, weights)
	if opt != nil {
		row.Tier = core.TierExact
	}
	return row
}

// resultRow builds one sweep or grid response row. The row shares the
// Result's measure slices: a memoized Result is never written after
// the sweep layer stores it (a refill only drops it from the memo), so
// the row stays valid after its entry is released or recycled.
func resultRow(n1, n2 int, res *core.Result, weights []float64) SweepResult {
	sr := SweepResult{
		N1:          n1,
		N2:          n2,
		Tier:        res.Tier,
		Blocking:    res.Blocking,
		Concurrency: res.Concurrency,
		ErrorBound:  res.ErrorBound,
	}
	if weights != nil {
		wv := res.Revenue(weights)
		sr.W = &wv
	}
	return sr
}

func (s *Server) handleHealthz(call) (any, error) {
	return map[string]string{"status": "ok"}, nil
}

func (s *Server) handleMetrics(call) (any, error) {
	return s.metricsSnapshot(), nil
}
