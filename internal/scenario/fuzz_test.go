package scenario_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"xbar/internal/scenario"
)

// floatBits compares floats for bit-identity (== would miss NaN).
func floatBits(x float64) uint64 { return math.Float64bits(x) }

// fuzzLimits keeps fuzzer-found specs cheap: small switches, short
// simulations, tiny chains. The fuzzer explores the spec space for
// crashes and contract violations, not for throughput.
var fuzzLimits = scenario.Limits{
	MaxDim:     48,
	MaxClasses: 6,
	MaxSlots:   2000,
	MaxEvents:  1e5,
	MaxStates:  512,
	MaxTimes:   8,
}

// FuzzSpec drives the full decode → validate → evaluate → re-encode
// round trip. Contract under fuzzing:
//
//   - Decode never panics; accepted documents re-encode to a spec with
//     the same canonical key (key stability).
//   - Validate never panics and returns only the documented error
//     taxonomy (InvalidError / LimitError / UnknownDisciplineError).
//   - A validated spec evaluates without panic; failures are EvalError;
//     successes are deterministic (same key → bit-identical measures).
func FuzzSpec(f *testing.F) {
	corpus, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range corpus {
		raw, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, raw := range roundingWindowSpecs {
		f.Add([]byte(raw))
	}
	// Malformed seeds steer the mutator at the decoder's edges.
	f.Add([]byte(`{"discipline": "slotted"`))
	f.Add([]byte(`{"discipline": "slotted", "topology": {"n1": -1, "n2": 0}, "params": {"load": 2}}`))
	f.Add([]byte(`{"discipline": "nope"} {"trailing": true}`))
	f.Add([]byte(`{"discipline": "link", "topology": {"c": 3}, "classes": [{"a": 1, "alpha": 1e308, "beta": -1e308, "mu": 1e-308}]}`))
	f.Add([]byte(`{"discipline": "transient", "topology": {"n1": 2, "n2": 2}, "classes": [{"a": 1, "alpha": 0.1, "mu": 1}], "params": {"times": [0, 1e9]}}`))

	e := scenario.New(scenario.Options{Limits: fuzzLimits})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := scenario.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.Validate(fuzzLimits); err != nil {
			var inv *scenario.InvalidError
			var le *scenario.LimitError
			var ud *scenario.UnknownDisciplineError
			if !errors.As(err, &inv) && !errors.As(err, &le) && !errors.As(err, &ud) {
				t.Fatalf("Validate returned an undocumented error type %T: %v", err, err)
			}
			return
		}

		// Key stability across a JSON round trip.
		key := s.Key()
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal of a valid spec: %v", err)
		}
		back, err := scenario.Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-decode of a marshaled spec: %v", err)
		}
		if back.Key() != key {
			t.Fatalf("key drift across round trip:\n%s\n%s", key, back.Key())
		}

		r1, err := e.Evaluate(s)
		if err != nil {
			var inv *scenario.InvalidError
			var ee *scenario.EvalError
			if !errors.As(err, &ee) && !errors.As(err, &inv) {
				t.Fatalf("Evaluate returned an undocumented error type %T: %v", err, err)
			}
			return
		}
		if r1.Discipline != s.Discipline {
			t.Fatalf("result discipline %q for spec %q", r1.Discipline, s.Discipline)
		}
		if len(s.Measures) == 0 && len(r1.Measures) == 0 {
			t.Fatalf("empty measure set for a valid %q spec", s.Discipline)
		}
		// Determinism: a second evaluation (memo or not) is
		// bit-identical.
		r2, err := e.Evaluate(s)
		if err != nil {
			t.Fatalf("second Evaluate failed after a success: %v", err)
		}
		if len(r1.Measures) != len(r2.Measures) {
			t.Fatalf("measure count changed between evaluations")
		}
		for i := range r1.Measures {
			a, b := r1.Measures[i], r2.Measures[i]
			if a.Name != b.Name || floatBits(a.Value) != floatBits(b.Value) || floatBits(a.HalfWidth) != floatBits(b.HalfWidth) {
				t.Fatalf("nondeterministic measure %d: %+v vs %+v", i, a, b)
			}
		}
	})
}
