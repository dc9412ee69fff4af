package scenario_test

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"xbar/internal/scenario"
)

func validSlotted() *scenario.Spec {
	return &scenario.Spec{
		Discipline: "slotted",
		Topology:   scenario.Topology{N1: 8, N2: 8},
		Params:     scenario.Params{Load: 0.5},
	}
}

func TestValidateTaxonomy(t *testing.T) {
	lim := scenario.Limits{}
	cases := []struct {
		name   string
		mutate func(*scenario.Spec)
		field  string // expected FieldError field; "" = LimitError or unknown
		kind   string // "invalid", "limit", "unknown"
	}{
		{"ok", func(s *scenario.Spec) {}, "", "ok"},
		{"unknown discipline", func(s *scenario.Spec) { s.Discipline = "quantum" }, "", "unknown"},
		{"missing dimension", func(s *scenario.Spec) { s.Topology.N2 = 0 }, "topology.n2", "invalid"},
		{"negative dimension", func(s *scenario.Spec) { s.Topology.N1 = -3 }, "topology.n1", "invalid"},
		{"load out of range", func(s *scenario.Spec) { s.Params.Load = 1.5 }, "params.load", "invalid"},
		{"load NaN", func(s *scenario.Spec) { s.Params.Load = nan() }, "params.load", "invalid"},
		{"stray field", func(s *scenario.Spec) { s.Params.Lambda = 2 }, "params.lambda", "invalid"},
		{"stray topology", func(s *scenario.Spec) { s.Topology.C = 4 }, "topology.c", "invalid"},
		{"stray classes", func(s *scenario.Spec) { s.Classes = []scenario.Class{{A: 1, Alpha: 1, Mu: 1}} }, "classes", "invalid"},
		{"seed without slots", func(s *scenario.Spec) { s.Sim.Seed = 9 }, "sim.seed", "invalid"},
		{"too few slots", func(s *scenario.Spec) { s.Sim.Slots = 7 }, "sim.slots", "invalid"},
		{"duplicate measure", func(s *scenario.Spec) { s.Measures = []string{"throughput", "throughput"} }, "measures[1]", "invalid"},
		{"oversized dimension", func(s *scenario.Spec) { s.Topology.N1 = 5000 }, "topology.n1", "limit"},
		{"oversized slot budget", func(s *scenario.Spec) {
			s.Topology.N1 = 4096
			s.Topology.N2 = 4096
			s.Sim.Slots = 1 << 19
			s.Sim.Seed = 1
		}, "sim.slots", "limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSlotted()
			tc.mutate(s)
			err := s.Validate(lim)
			switch tc.kind {
			case "ok":
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
			case "unknown":
				var ud *scenario.UnknownDisciplineError
				if !errors.As(err, &ud) {
					t.Fatalf("want UnknownDisciplineError, got %v", err)
				}
				if !strings.Contains(ud.Error(), "slotted") {
					t.Errorf("error should list disciplines: %v", ud)
				}
			case "invalid":
				var inv *scenario.InvalidError
				if !errors.As(err, &inv) {
					t.Fatalf("want InvalidError, got %v", err)
				}
				found := false
				for _, f := range inv.Fields {
					if f.Field == tc.field {
						found = true
					}
				}
				if !found {
					t.Errorf("want a FieldError on %q, got %v", tc.field, inv.Fields)
				}
			case "limit":
				var le *scenario.LimitError
				if !errors.As(err, &le) {
					t.Fatalf("want LimitError, got %v", err)
				}
				if le.Field != tc.field {
					t.Errorf("LimitError on %q, want %q", le.Field, tc.field)
				}
			}
		})
	}
}

func nan() float64 { return math.NaN() }

func TestValidateSimRequired(t *testing.T) {
	s := &scenario.Spec{
		Discipline: "overflow",
		Topology:   scenario.Topology{N1: 4},
		Params:     scenario.Params{Lambda: 10, Mu: 1, SecondaryN: 4},
	}
	err := s.Validate(scenario.Limits{})
	var inv *scenario.InvalidError
	if !errors.As(err, &inv) {
		t.Fatalf("want InvalidError for missing horizon, got %v", err)
	}
	s.Sim = scenario.Sim{Seed: 1, Warmup: 5, Horizon: 50}
	if err := s.Validate(scenario.Limits{}); err != nil {
		t.Fatalf("Validate with sim: %v", err)
	}
	// An event budget past the limit is a LimitError.
	s.Params.Lambda = 1e9
	var le *scenario.LimitError
	if err := s.Validate(scenario.Limits{}); !errors.As(err, &le) {
		t.Fatalf("want LimitError for event budget, got %v", err)
	}
}

func TestDecodeStrict(t *testing.T) {
	if _, err := scenario.Decode(strings.NewReader(`{"discipline": "slotted", "bogus": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := scenario.Decode(strings.NewReader(`{"discipline": "slotted"} trailing`)); err == nil {
		t.Error("trailing data accepted")
	}
	for _, trailing := range []string{`]`, `}}}junk`, `]]]garbage`, " \n}"} {
		if _, err := scenario.Decode(strings.NewReader(`{"discipline": "slotted"}` + trailing)); err == nil {
			t.Errorf("trailing %q accepted", trailing)
		}
	}
	if _, err := scenario.Decode(strings.NewReader(`{"discipline": "slotted"} ` + "\n\t")); err != nil {
		t.Errorf("trailing white space rejected: %v", err)
	}
	if _, err := scenario.Decode(strings.NewReader(`{`)); err == nil {
		t.Error("truncated JSON accepted")
	}
	s, err := scenario.Decode(strings.NewReader(`{"discipline": "slotted", "topology": {"n1": 2, "n2": 2}, "params": {"load": 0.5}}`))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if s.Discipline != "slotted" || s.Topology.N1 != 2 {
		t.Errorf("decoded %+v", s)
	}
}

func TestKeyRoundTripAndSensitivity(t *testing.T) {
	s := validSlotted()
	key := s.Key()

	// JSON round trip preserves the key exactly.
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := scenario.Decode(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if back.Key() != key {
		t.Errorf("round-trip key drift:\n%s\n%s", key, back.Key())
	}

	// Class names and the measure filter do not enter the key...
	named := validSlotted()
	named.Measures = []string{"throughput"}
	if named.Key() != key {
		t.Errorf("measure filter changed the key")
	}
	// ...but every numeric field does.
	perturbed := []*scenario.Spec{validSlotted(), validSlotted(), validSlotted()}
	perturbed[0].Params.Load = 0.5000000000000001
	perturbed[1].Topology.N2 = 9
	perturbed[2].Sim = scenario.Sim{Seed: 1, Slots: 100}
	for i, p := range perturbed {
		if p.Key() == key {
			t.Errorf("perturbation %d did not change the key", i)
		}
	}
}

func TestEngineFilter(t *testing.T) {
	e := scenario.New(scenario.Options{})
	// The filter selects and orders; unknown names are indexed errors.
	sf := validSlotted()
	sf.Measures = []string{"acceptance", "throughput"}
	rf, err := e.Evaluate(sf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Measures) != 2 || rf.Measures[0].Name != "acceptance" || rf.Measures[1].Name != "throughput" {
		t.Errorf("filtered measures %+v", rf.Measures)
	}
	bad := validSlotted()
	bad.Measures = []string{"throughput", "nope"}
	var inv *scenario.InvalidError
	if _, err := e.Evaluate(bad); !errors.As(err, &inv) {
		t.Fatalf("want InvalidError for unknown measure, got %v", err)
	} else if inv.Fields[0].Field != "measures[1]" {
		t.Errorf("unknown measure located at %q", inv.Fields[0].Field)
	}
}

func TestPackageEvaluate(t *testing.T) {
	r, err := scenario.Evaluate(validSlotted())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Measure("throughput"); !ok {
		t.Errorf("missing throughput in %+v", r.Measures)
	}
	if r.Discipline != "slotted" {
		t.Errorf("discipline %q", r.Discipline)
	}
}

func TestDisciplinesSorted(t *testing.T) {
	ds := scenario.Disciplines()
	if len(ds) != 10 {
		t.Fatalf("%d disciplines, want 10: %v", len(ds), ds)
	}
	for i := 1; i < len(ds); i++ {
		if ds[i-1] >= ds[i] {
			t.Errorf("not sorted: %v", ds)
		}
	}
}

// roundingWindowSpecs are simulation specs on warmup 10, horizon 37:
// with the default 20 batches a batch boundary rounds back into the
// batch before it, which stalled the simulators' hand-copied batch
// loops forever. They are also FuzzSpec seeds.
var roundingWindowSpecs = []string{
	`{"discipline":"retrial","topology":{"n1":4,"n2":4},"params":{"lambda":2,"mu":1},"sim":{"seed":1,"warmup":10,"horizon":37}}`,
	`{"discipline":"clos","topology":{"m":5,"n":3,"r":4},"params":{"load":0.7,"mu":1,"policy":"first-fit"},"sim":{"seed":2,"warmup":10,"horizon":37}}`,
	`{"discipline":"hotspot","topology":{"n1":8,"n2":8},"params":{"lambda":5,"mu":1,"hot_fraction":0.3},"sim":{"seed":6,"warmup":10,"horizon":37}}`,
	`{"discipline":"wdm","topology":{"l":3,"w":8},"params":{"rate":4,"cross_rate":1,"mu":1,"policy":"random-fit"},"sim":{"seed":3,"warmup":10,"horizon":37}}`,
}

// TestRoundingWindowTerminates: each simulation discipline finishes on
// a window whose batch boundaries round, within a deadline, with every
// measure finite.
func TestRoundingWindowTerminates(t *testing.T) {
	for _, raw := range roundingWindowSpecs {
		s, err := scenario.Decode(strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(s.Discipline, func(t *testing.T) {
			type outcome struct {
				r   *scenario.Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				r, err := scenario.Evaluate(s)
				done <- outcome{r, err}
			}()
			select {
			case o := <-done:
				if o.err != nil {
					t.Fatal(o.err)
				}
				for _, m := range o.r.Measures {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || math.IsNaN(m.HalfWidth) || math.IsInf(m.HalfWidth, 0) {
						t.Errorf("measure %s = %v ± %v, want finite", m.Name, m.Value, m.HalfWidth)
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s did not finish on warmup 10, horizon 37", s.Discipline)
			}
		})
	}
}
