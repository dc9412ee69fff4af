package scenario

import (
	"fmt"

	"xbar/internal/grid"
)

// Options configures an Engine.
type Options struct {
	// Limits bounds admissible specs; zero fields take DefaultLimits.
	Limits Limits
	// Grid and NoMemo are inert: an Engine routes no solve through a
	// grid engine and keeps nothing across calls (each product-form
	// solve is one core.Solve of a legacy entry point). They remain
	// only because the load benchmark's stage replay (cmd/xbarload) is
	// compiled against them and changes only together with the
	// benchmark. Nothing else sets them.
	Grid   grid.Options
	NoMemo bool
}

// EvalError wraps a failure inside a legacy evaluator for a spec that
// passed validation — a semantically unevaluable scenario (HTTP 422),
// not a malformed one.
type EvalError struct {
	Discipline string
	Err        error
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("scenario %q: %v", e.Discipline, e.Err)
}

func (e *EvalError) Unwrap() error { return e.Err }

// Engine evaluates scenario specs. It holds only its Limits and keeps
// nothing across calls, so an Engine is safe for concurrent use.
type Engine struct {
	lim Limits
}

// New builds an Engine.
func New(opt Options) *Engine {
	return &Engine{lim: opt.Limits.withDefaults()}
}

// Evaluate validates the spec, runs its discipline's adapter and
// applies the spec's measure filter. The returned Result is the
// caller's to keep.
func (e *Engine) Evaluate(s *Spec) (*Result, error) {
	if err := s.Validate(e.lim); err != nil {
		return nil, err
	}
	ms, err := disciplines[s.Discipline].eval(e, s)
	if err != nil {
		return nil, &EvalError{Discipline: s.Discipline, Err: err}
	}
	return filter(&Result{Discipline: s.Discipline, Measures: ms}, s)
}

// filter applies the spec's Measures selection to a full result
// (identity when empty). Unknown measure names are an InvalidError,
// reported only now because the discipline's measure set is
// evaluation-dependent.
func filter(full *Result, s *Spec) (*Result, error) {
	if len(s.Measures) == 0 {
		return full, nil
	}
	out := &Result{Discipline: full.Discipline, Measures: make([]Measure, 0, len(s.Measures))}
	var fe fieldErrs
	for i, name := range s.Measures {
		m, ok := full.Measure(name)
		if !ok {
			fe.addf(fmt.Sprintf("measures[%d]", i), "discipline %q has no measure %q", s.Discipline, name)
			continue
		}
		out.Measures = append(out.Measures, m)
	}
	if err := fe.err(); err != nil {
		return nil, err
	}
	return out, nil
}

// std is the engine behind the package-level Evaluate — the
// zero-setup entry point mirroring the legacy packages' free
// functions.
var std = New(Options{})

// Evaluate runs one spec on an Engine with default options. Callers
// wanting other limits build their own Engine with New.
func Evaluate(s *Spec) (*Result, error) {
	return std.Evaluate(s)
}
