package server

import (
	"math"
	"strconv"
)

// The encode stage's fast path: one append encoder per solve response
// type, byte-identical to json.NewEncoder(buf).Encode(v), trailing
// newline included. A document holding a string byte outside printable
// ASCII or one of " \ < > &, or a NaN or an infinity, is handed to
// encoding/json instead (which turns the non-finite float into the
// 500 it always was).

// appendResponse appends v's encoding to b. It reports false, and b
// must be dropped, when v is not a solve response or lies outside the
// subset.
func appendResponse(b []byte, v any) ([]byte, bool) {
	e := encoder{b: b}
	switch v := v.(type) {
	case BlockingResponse:
		e.blocking(&v)
	case RevenueResponse:
		e.revenue(&v)
	case AdmissionResponse:
		e.admission(&v)
	case SweepResponse:
		e.sweep(&v)
	case GridResponse:
		e.grid(&v)
	default:
		return b, false
	}
	return append(e.b, '\n'), !e.handoff
}

// encoder appends one document; handoff records a value outside the
// subset.
type encoder struct {
	b       []byte
	handoff bool
}

// key opens a member, with its comma unless it is the object's first,
// and returns e for the member's value.
func (e *encoder) key(name string) *encoder {
	if e.b[len(e.b)-1] != '{' {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':')
	return e
}

func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.handoff = true
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// float follows encoding/json: 'f' format, but 'e' for magnitudes
// below 1e-6 or from 1e21, with e-07 cleaned up to e-7.
func (e *encoder) float(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		e.handoff = true
		return
	}
	format := byte('f')
	if abs := math.Abs(x); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, x, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

func (e *encoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

func (e *encoder) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

// zero is omitempty's test for a float: 0 and -0.
func zero(x float64) bool { return math.Float64bits(x)<<1 == 0 }

// jsonArray appends xs as a JSON array, or null for a nil slice.
func jsonArray[E any](e *encoder, xs []E, elem func(*E)) {
	if xs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i := range xs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		elem(&xs[i])
	}
	e.b = append(e.b, ']')
}

func (e *encoder) floats(xs []float64) { jsonArray(e, xs, func(x *float64) { e.float(*x) }) }

func (e *encoder) blocking(r *BlockingResponse) {
	e.b = append(e.b, '{')
	e.key("n1").int(r.N1)
	e.key("n2").int(r.N2)
	e.key("method").str(r.Method)
	if r.Tier != "" {
		e.key("tier").str(r.Tier)
	}
	e.key("log_g").float(r.LogG)
	e.key("utilization").float(r.Utilization)
	e.key("cached").bool(r.Cached)
	jsonArray(e.key("classes"), r.Classes, func(c *ClassResult) {
		e.b = append(e.b, '{')
		if c.Name != "" {
			e.key("name").str(c.Name)
		}
		e.key("a").int(c.A)
		e.key("blocking").float(c.Blocking)
		e.key("non_blocking").float(c.NonBlocking)
		e.key("concurrency").float(c.Concurrency)
		e.key("throughput").float(c.Throughput)
		if !zero(c.ErrorBound) {
			e.key("error_bound").float(c.ErrorBound)
		}
		e.b = append(e.b, '}')
	})
	e.b = append(e.b, '}')
}

func (e *encoder) revenue(r *RevenueResponse) {
	e.b = append(e.b, '{')
	e.key("n1").int(r.N1)
	e.key("n2").int(r.N2)
	e.key("w").float(r.W)
	if r.Tier != "" {
		e.key("tier").str(r.Tier)
	}
	e.key("cached").bool(r.Cached)
	jsonArray(e.key("classes"), r.Classes, func(c *ClassRevenue) {
		e.b = append(e.b, '{')
		if c.Name != "" {
			e.key("name").str(c.Name)
		}
		e.key("weight").float(c.Weight)
		e.key("shadow_cost").float(c.ShadowCost)
		e.key("profitable").bool(c.Profitable)
		e.key("grad_rho_closed").float(c.GradRhoClosed)
		if c.GradBetaMu != nil {
			e.key("grad_beta_mu").float(*c.GradBetaMu)
		}
		if !zero(c.ErrorBound) {
			e.key("error_bound").float(c.ErrorBound)
		}
		e.b = append(e.b, '}')
	})
	e.b = append(e.b, '}')
}

func (e *encoder) admission(r *AdmissionResponse) {
	e.b = append(e.b, '{')
	e.key("accept").bool(r.Accept)
	e.key("policy").str(r.Policy)
	e.key("class").int(r.Class)
	if r.Tier != "" {
		e.key("tier").str(r.Tier)
	}
	if r.Weight != nil {
		e.key("weight").float(*r.Weight)
	}
	if r.ShadowCost != nil {
		e.key("shadow_cost").float(*r.ShadowCost)
	}
	if r.Occupancy != nil {
		e.key("occupancy").int(*r.Occupancy)
	}
	e.key("cached").bool(r.Cached)
	e.b = append(e.b, '}')
}

func (e *encoder) sweep(r *SweepResponse) {
	e.b = append(e.b, '{')
	e.key("n1").int(r.N1)
	e.key("n2").int(r.N2)
	e.key("method").str(r.Method)
	e.key("cached").bool(r.Cached)
	jsonArray(e.key("results"), r.Results, e.row)
	e.b = append(e.b, '}')
}

func (e *encoder) grid(r *GridResponse) {
	e.b = append(e.b, '{')
	e.key("method").str(r.Method)
	e.key("points").int(r.Points)
	e.key("models").int(r.Models)
	e.key("cached").int(r.Cached)
	if r.Asymptotic != 0 {
		e.key("asymptotic").int(r.Asymptotic)
	}
	jsonArray(e.key("results"), r.Results, e.row)
	e.b = append(e.b, '}')
}

// row encodes one sweep or grid result.
func (e *encoder) row(r *SweepResult) {
	e.b = append(e.b, '{')
	e.key("n1").int(r.N1)
	e.key("n2").int(r.N2)
	if r.Tier != "" {
		e.key("tier").str(r.Tier)
	}
	e.key("blocking").floats(r.Blocking)
	e.key("concurrency").floats(r.Concurrency)
	if len(r.ErrorBound) > 0 {
		e.key("error_bound").floats(r.ErrorBound)
	}
	if r.W != nil {
		e.key("w").float(*r.W)
	}
	e.b = append(e.b, '}')
}
