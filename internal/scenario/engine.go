package scenario

import (
	"fmt"
	"sync"

	"xbar/internal/core"
	"xbar/internal/grid"
)

// Options configures an Engine.
type Options struct {
	// Grid configures the embedded grid.Engine that serves every
	// product-form solve an adapter needs (the overflow Wilkinson fits,
	// the retrial cleared anchor).
	Grid grid.Options
	// Limits bounds admissible specs; zero fields take DefaultLimits.
	Limits Limits
	// NoMemo makes the engine keep nothing across calls: New passes it
	// on as Grid.NoMemo, so every product-form solve pays its own fill.
	// A caller with its own result cache (the xbard endpoint) sets it,
	// so that cache is the only memo on its path.
	NoMemo bool
}

// Stats is the engine's lifetime accounting.
type Stats struct {
	// Grid is the embedded grid engine's accounting.
	Grid grid.Stats
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

// Engine evaluates scenario specs. It keeps no results of its own:
// the only state carried across calls is the embedded grid engine's
// memo of product-form solves (none under NoMemo). An Engine is safe
// for concurrent use.
type Engine struct {
	lim  Limits
	grid *grid.Engine
}

// New builds an Engine.
func New(opt Options) *Engine {
	gopt := opt.Grid
	gopt.NoMemo = gopt.NoMemo || opt.NoMemo
	return &Engine{
		lim:  opt.Limits.withDefaults(),
		grid: grid.New(gopt),
	}
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

// Stats returns a snapshot of the engine's accounting.
func (e *Engine) Stats() Stats { return Stats{Grid: e.grid.Stats()} }

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

// solve routes one product-form switch through the embedded grid
// engine.
func (e *Engine) solve(sw core.Switch) (*core.Result, error) {
	res, err := e.grid.Solve([]core.Switch{sw})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// std is the process-wide engine behind the package-level Evaluate —
// the zero-setup entry point mirroring the legacy packages' free
// functions.
var (
	stdOnce sync.Once
	std     *Engine
)

// Evaluate runs one spec on a lazily built process-wide Engine with
// default options. Callers wanting limits, memo control or stats build
// their own Engine with New.
func Evaluate(s *Spec) (*Result, error) {
	stdOnce.Do(func() { std = New(Options{}) })
	return std.Evaluate(s)
}
