package server

import (
	"errors"
	"fmt"
	"net/http"

	"xbar/internal/scenario"
)

// scenarioLimits derives the scenario validation limits from the server
// configuration: the dimension and class caps follow the ones the
// /v1/blocking family enforces, everything else takes the scenario
// package defaults.
func (c Config) scenarioLimits() scenario.Limits {
	return scenario.Limits{MaxDim: c.MaxDim, MaxClasses: c.MaxClasses}
}

// ScenarioMeasure is one measure in a POST /v1/scenario reply.
// HalfWidth is the 95% confidence half-width of simulation estimates;
// analytical measures carry none and omit the field.
type ScenarioMeasure struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	HalfWidth float64 `json:"half_width,omitempty"`
}

// ScenarioResponse is the POST /v1/scenario reply. Measures are in the
// request's measure-filter order when a filter was given, otherwise in
// the discipline's documented order. Omitted lists measures whose value
// is not finite for this scenario (JSON cannot carry NaN or ±Inf); a
// name appears in exactly one of the two lists.
type ScenarioResponse struct {
	Discipline string            `json:"discipline"`
	Cached     bool              `json:"cached"`
	Measures   []ScenarioMeasure `json:"measures"`
	Omitted    []string          `json:"omitted,omitempty"`
}

// scenarioErrorDoc is the 400 body for spec validation failures:
// the standard error string plus the per-field diagnostics.
type scenarioErrorDoc struct {
	Error  string                `json:"error"`
	Fields []scenario.FieldError `json:"fields"`
}

// scenarioError maps the scenario package's error taxonomy onto the
// HTTP contract: malformed specs are 400 (with indexed field errors in
// the body), well-formed but oversized specs are 413, and unknown
// disciplines or semantically unevaluable scenarios are 422. Anything
// else propagates as a 500.
func scenarioError(err error) error {
	var inv *scenario.InvalidError
	var le *scenario.LimitError
	var ud *scenario.UnknownDisciplineError
	var ee *scenario.EvalError
	switch {
	case errors.As(err, &inv):
		return &apiError{code: http.StatusBadRequest, msg: inv.Error(),
			doc: scenarioErrorDoc{Error: inv.Error(), Fields: inv.Fields}}
	case errors.As(err, &le):
		return &apiError{code: http.StatusRequestEntityTooLarge, msg: le.Error()}
	case errors.As(err, &ud):
		return unprocessable("%v", ud)
	case errors.As(err, &ee):
		return unprocessable("%v", ee)
	}
	return err
}

func (s *Server) handleScenario(c call, spec *scenario.Spec) (any, error) {
	if err := spec.Validate(s.cfg.scenarioLimits()); err != nil {
		return nil, scenarioError(err)
	}
	// The cache stores one full measure set per canonical key (the key
	// excludes the measure filter), so requests differing only in their
	// filter share an entry; the filter applies on the way out.
	var resp ScenarioResponse
	if ok, err := through(c, s.scCache, []string{spec.Key()},
		func(int) (*scenario.Result, error) {
			fullSpec := *spec
			fullSpec.Measures = nil
			return s.scenario.Evaluate(&fullSpec)
		},
		func(_ int, full *scenario.Result, cached bool) error {
			resp = ScenarioResponse{Discipline: full.Discipline, Cached: cached, Measures: []ScenarioMeasure{}}
			return resp.filter(full, spec.Measures)
		},
		scenarioError); !ok || err != nil {
		return nil, err
	}
	return resp, nil
}

// filter adds the requested measures of full to the reply, in the
// filter's order (every measure, in the discipline's order, when the
// filter is empty). Names the discipline does not have are an indexed
// 400.
func (resp *ScenarioResponse) filter(full *scenario.Result, names []string) error {
	add := func(m scenario.Measure) {
		if !finite(m.Value) || !finite(m.HalfWidth) {
			resp.Omitted = append(resp.Omitted, m.Name)
			return
		}
		resp.Measures = append(resp.Measures, ScenarioMeasure{Name: m.Name, Value: m.Value, HalfWidth: m.HalfWidth})
	}
	if len(names) == 0 {
		for _, m := range full.Measures {
			add(m)
		}
		return nil
	}
	var fields []scenario.FieldError
	for i, name := range names {
		m, ok := full.Measure(name)
		if !ok {
			fields = append(fields, scenario.FieldError{
				Field: fmt.Sprintf("measures[%d]", i),
				Msg:   fmt.Sprintf("discipline %q has no measure %q", full.Discipline, name),
			})
			continue
		}
		add(m)
	}
	if len(fields) > 0 {
		return &apiError{code: http.StatusBadRequest, msg: "unknown measures",
			doc: scenarioErrorDoc{Error: "unknown measures", Fields: fields}}
	}
	return nil
}
