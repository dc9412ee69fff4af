// Package scenario unifies the repo's ten scenario packages behind one
// declarative specification and one Evaluate entry point.
//
// The paper's model family is a single product-form fabric evaluated
// under many scenario variants — synchronous slotted operation, Clos
// and omega multistage alternatives, WDM transmission paths, overflow
// and retrial recovery, hot-spot access, input queueing, multirate
// links and transient start-up — which the repo grew as siloed
// packages, each with its own model types and entry points. A Spec
// names the discipline and carries the switch topology, the BPP
// traffic classes (alpha, beta, mu), the scenario parameters and the
// simulation block in one JSON-able document; Evaluate routes it
// through a thin adapter onto the legacy package, whose results the
// package's property tests pin bit-identical. The payoff is that every
// scenario becomes cacheable (the canonical Key is an exact cache
// identity; each product-form solve is the legacy entry point's own
// core.Solve) and servable (POST /v1/scenario on xbard) for free — and
// the spec space itself is fuzzable (FuzzSpec), giving the
// scenario-diversity generator the ROADMAP calls for.
//
// See docs/SCENARIOS.md for the spec schema and the adapter table.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// Topology is the structural part of a Spec. Which fields a discipline
// reads is documented per discipline (docs/SCENARIOS.md); fields a
// discipline does not read must stay zero — strict validation rejects
// stray values so that the canonical Key is an exact identity.
type Topology struct {
	// N1, N2 are crossbar dimensions (slotted uses N1 inputs x N2
	// outputs; inputq, minnet are square and read N1).
	N1 int `json:"n1,omitempty"`
	N2 int `json:"n2,omitempty"`
	// M, N, R describe a Clos network C(m, n, r).
	M int `json:"m,omitempty"`
	N int `json:"n,omitempty"`
	R int `json:"r,omitempty"`
	// L, W describe a WDM path: L hops of W wavelengths.
	L int `json:"l,omitempty"`
	W int `json:"w,omitempty"`
	// C is a multirate link's capacity in units.
	C int `json:"c,omitempty"`
}

// Class is one BPP traffic class in per-route units, mirroring
// core.Class: arrival intensity alpha + beta*k, service rate mu,
// bandwidth a.
type Class struct {
	Name  string  `json:"name,omitempty"`
	A     int     `json:"a"`
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta,omitempty"`
	Mu    float64 `json:"mu"`
}

// Params carries the scenario-specific knobs. As with Topology, fields
// the discipline does not read must stay zero.
type Params struct {
	// Load is a per-input offered load in [0, 1] (slotted, clos,
	// inputq, minnet).
	Load float64 `json:"load,omitempty"`
	// Lambda is a total Poisson arrival rate (overflow, retrial,
	// hotspot).
	Lambda float64 `json:"lambda,omitempty"`
	// Mu is the service (teardown) rate where the discipline carries a
	// single implicit class (clos, wdm, overflow, retrial, hotspot).
	Mu float64 `json:"mu,omitempty"`
	// Rate and CrossRate are the WDM end-to-end and per-link
	// cross-traffic arrival rates.
	Rate      float64 `json:"rate,omitempty"`
	CrossRate float64 `json:"cross_rate,omitempty"`
	// HotFraction is the hotspot discipline's hot-output probability.
	HotFraction float64 `json:"hot_fraction,omitempty"`
	// RetryRate and MaxAttempts parameterize the retrial orbit.
	RetryRate   float64 `json:"retry_rate,omitempty"`
	MaxAttempts int     `json:"max_attempts,omitempty"`
	// SecondaryN is the overflow discipline's secondary switch size.
	SecondaryN int `json:"secondary_n,omitempty"`
	// Policy selects a discipline-specific service discipline: the Clos
	// middle-stage policy (random-available, first-fit, random-try),
	// the WDM assignment (first-fit, random-fit) or the inputq
	// discipline (input-queued, output-queued). Empty selects each
	// package's default.
	Policy string `json:"policy,omitempty"`
	// Converters relaxes WDM wavelength continuity.
	Converters bool `json:"converters,omitempty"`
	// Class is the class index transient trajectories report.
	Class int `json:"class,omitempty"`
	// Times are the transient evaluation times.
	Times []float64 `json:"times,omitempty"`
}

// Sim is the simulation block. A zero Sim means "analytic measures
// only" for disciplines with optional simulation; disciplines that are
// pure simulations (overflow, retrial, inputq) require it.
type Sim struct {
	Seed    uint64  `json:"seed,omitempty"`
	Warmup  float64 `json:"warmup,omitempty"`
	Horizon float64 `json:"horizon,omitempty"`
	Batches int     `json:"batches,omitempty"`
	// Slots is the horizon of the slotted simulators (slotted, inputq,
	// minnet).
	Slots int `json:"slots,omitempty"`
	// QueueCap bounds inputq queues (0 = the package default).
	QueueCap int `json:"queue_cap,omitempty"`
}

// Spec is one declarative scenario: a discipline name plus the
// structural, traffic, parameter and simulation blocks it reads.
type Spec struct {
	Discipline string   `json:"discipline"`
	Topology   Topology `json:"topology"`
	Classes    []Class  `json:"classes,omitempty"`
	Params     Params   `json:"params"`
	Sim        Sim      `json:"sim"`
	// Measures, when non-empty, filters the result to the named
	// measures (in the order given). Unknown names are rejected after
	// evaluation, when the discipline's measure set is known.
	Measures []string `json:"measures,omitempty"`
}

// Measure is one named scalar of a Result. HalfWidth is non-zero for
// simulation estimates carrying a 95% confidence interval.
type Measure struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	HalfWidth float64 `json:"half_width,omitempty"`
}

// Result is the uniform evaluation outcome: the discipline echoed and
// its measures in a fixed, documented order.
type Result struct {
	Discipline string    `json:"discipline"`
	Measures   []Measure `json:"measures"`
}

// Measure returns the named measure and whether it exists.
func (r *Result) Measure(name string) (Measure, bool) {
	for _, m := range r.Measures {
		if m.Name == name {
			return m, true
		}
	}
	return Measure{}, false
}

// FieldError locates one validation failure by the JSON path of the
// offending field ("params.load", "classes[2].mu").
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"error"`
}

// InvalidError reports a structurally malformed spec: required fields
// missing, values out of domain, fields set that the discipline does
// not read. Maps to HTTP 400.
type InvalidError struct {
	Fields []FieldError
}

func (e *InvalidError) Error() string {
	var b strings.Builder
	b.WriteString("invalid scenario spec")
	for i, f := range e.Fields {
		if i == 0 {
			b.WriteString(": ")
		} else {
			b.WriteString("; ")
		}
		b.WriteString(f.Field)
		b.WriteString(": ")
		b.WriteString(f.Msg)
	}
	return b.String()
}

// LimitError reports a well-formed spec that exceeds an evaluation
// limit (topology dimension, class count, simulation budget). Maps to
// HTTP 413.
type LimitError struct {
	Field string
	Msg   string
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("scenario too large: %s: %s", e.Field, e.Msg)
}

// UnknownDisciplineError reports a discipline name no adapter serves.
// Maps to HTTP 422.
type UnknownDisciplineError struct {
	Discipline string
}

func (e *UnknownDisciplineError) Error() string {
	return fmt.Sprintf("unknown discipline %q (have %s)",
		e.Discipline, strings.Join(Disciplines(), ", "))
}

// Decode reads one spec from r with the server's strictness: unknown
// fields rejected, anything but white space after the spec rejected. Decoding errors are plain
// errors (the transport layer's 400); the spec is NOT validated — call
// Spec.Validate (or let Engine.Evaluate do it).
func Decode(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		// Preserve MaxBytesReader's error identity for the transport
		// layer's 413 mapping.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, err
		}
		return nil, fmt.Errorf("invalid JSON: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trailing data after JSON body")
	}
	return &s, nil
}

// hexFloat renders x exactly: two keys collide only for bit-identical
// parameters (the grid.ClassKey / xbard cacheKey convention).
func hexFloat(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// Key canonicalizes a spec to an exact cache identity: two specs with
// equal keys evaluate to bit-identical results. Every field Evaluate
// can read enters the key — simulation measures depend on the seed and
// the full parameter set, so nothing is canonicalized away except
// class names (which never enter the numerics) and the Measures
// filter (a result cache stores the full measure set and filters per
// call). Strict validation guarantees fields a discipline ignores are
// zero, so they cannot fragment the key space.
func (s *Spec) Key() string {
	var b strings.Builder
	b.Grow(128 + 72*len(s.Classes))
	b.WriteString(s.Discipline)
	t := s.Topology
	for _, d := range [...]int{t.N1, t.N2, t.M, t.N, t.R, t.L, t.W, t.C} {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(d))
	}
	for i := range s.Classes {
		c := &s.Classes[i]
		b.WriteString("|c")
		b.WriteString(strconv.Itoa(c.A))
		b.WriteByte(':')
		b.WriteString(hexFloat(c.Alpha))
		b.WriteByte(':')
		b.WriteString(hexFloat(c.Beta))
		b.WriteByte(':')
		b.WriteString(hexFloat(c.Mu))
	}
	p := s.Params
	b.WriteString("|p")
	for _, f := range [...]float64{p.Load, p.Lambda, p.Mu, p.Rate, p.CrossRate, p.HotFraction, p.RetryRate} {
		b.WriteByte(':')
		b.WriteString(hexFloat(f))
	}
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(p.MaxAttempts))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(p.SecondaryN))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(p.Class))
	b.WriteByte(':')
	b.WriteString(p.Policy)
	b.WriteByte(':')
	b.WriteString(strconv.FormatBool(p.Converters))
	for _, t := range p.Times {
		b.WriteString("|t")
		b.WriteString(hexFloat(t))
	}
	sim := s.Sim
	b.WriteString("|s")
	b.WriteString(strconv.FormatUint(sim.Seed, 16))
	b.WriteByte(':')
	b.WriteString(hexFloat(sim.Warmup))
	b.WriteByte(':')
	b.WriteString(hexFloat(sim.Horizon))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(sim.Batches))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(sim.Slots))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(sim.QueueCap))
	return b.String()
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
