package server

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
)

// The decode stage of the five /v1 solve endpoints. A body inside a
// plain subset of JSON is decoded by a small scanner driven by one
// field table per request type, without reflection:
//
//   - objects whose keys match a field name exactly, none repeated;
//   - strings of printable ASCII with no escape;
//   - numbers in strict JSON grammar that strconv parses (an int field
//     takes no fraction and no exponent);
//   - true and false;
//   - JSON white space only, and nothing after the value.
//
// Anything else (null, an escape, a non-ASCII byte, a case-folded or
// unknown key, a repeated key, trailing data, a syntax error) is
// decoded again, into a fresh value, by decodeJSON: the encoding/json
// reference, so every 400 text and every non-canonical body behaves
// as the reference does. Both paths reject an array over its limit
// before building its elements.

// wireLimits are the array lengths a solve request may carry: the
// server's MaxClasses for classes, weights, limits, state and a grid
// point's class deltas, and MaxSweepPoints and MaxGridPoints for
// points.
type wireLimits struct {
	classes, sweepPoints, gridPoints int
}

// field is one key of a field table: its JSON name and the Go field it
// decodes into, as a typed pointer that scanner.value switches on.
type field[T any] struct {
	name string
	ptr  func(*T) any
}

// wireType is one request type's decode table.
type wireType[T any] struct {
	fields []field[T]
	// elems is the most array elements, at any depth, a body of this
	// type may hold within the limits: decodeJSON runs only on a body
	// the skim finds within it.
	elems func(wireLimits) int
}

// specFields are the keys every solve request embeds: SwitchSpec's
// and DispatchSpec's.
func specFields[T any](spec func(*T) *SwitchSpec, disp func(*T) *DispatchSpec, own ...field[T]) []field[T] {
	return append([]field[T]{
		{"n1", func(r *T) any { return &spec(r).N1 }},
		{"n2", func(r *T) any { return &spec(r).N2 }},
		{"units", func(r *T) any { return &spec(r).Units }},
		{"classes", func(r *T) any { return &spec(r).Classes }},
		{"dispatch", func(r *T) any { return &disp(r).Dispatch }},
		{"tolerance", func(r *T) any { return &disp(r).Tolerance }},
	}, own...)
}

var blockingWire = wireType[BlockingRequest]{
	fields: specFields(
		func(r *BlockingRequest) *SwitchSpec { return &r.SwitchSpec },
		func(r *BlockingRequest) *DispatchSpec { return &r.DispatchSpec },
		field[BlockingRequest]{"algorithm", func(r *BlockingRequest) any { return &r.Algorithm }}),
	elems: func(l wireLimits) int { return l.classes },
}

var revenueWire = wireType[RevenueRequest]{
	fields: specFields(
		func(r *RevenueRequest) *SwitchSpec { return &r.SwitchSpec },
		func(r *RevenueRequest) *DispatchSpec { return &r.DispatchSpec },
		field[RevenueRequest]{"weights", func(r *RevenueRequest) any { return &r.Weights }},
		field[RevenueRequest]{"gradients", func(r *RevenueRequest) any { return &r.Gradients }},
		field[RevenueRequest]{"step", func(r *RevenueRequest) any { return &r.Step }}),
	elems: func(l wireLimits) int { return 2 * l.classes },
}

var admissionWire = wireType[AdmissionRequest]{
	fields: specFields(
		func(r *AdmissionRequest) *SwitchSpec { return &r.SwitchSpec },
		func(r *AdmissionRequest) *DispatchSpec { return &r.DispatchSpec },
		field[AdmissionRequest]{"class", func(r *AdmissionRequest) any { return &r.Class }},
		field[AdmissionRequest]{"policy", func(r *AdmissionRequest) any { return &r.Policy }},
		field[AdmissionRequest]{"weights", func(r *AdmissionRequest) any { return &r.Weights }},
		field[AdmissionRequest]{"limits", func(r *AdmissionRequest) any { return &r.Limits }},
		field[AdmissionRequest]{"state", func(r *AdmissionRequest) any { return &r.State }}),
	elems: func(l wireLimits) int { return 4 * l.classes },
}

var sweepWire = wireType[SweepRequest]{
	fields: specFields(
		func(r *SweepRequest) *SwitchSpec { return &r.SwitchSpec },
		func(r *SweepRequest) *DispatchSpec { return &r.DispatchSpec },
		field[SweepRequest]{"algorithm", func(r *SweepRequest) any { return &r.Algorithm }},
		field[SweepRequest]{"points", func(r *SweepRequest) any { return &r.Points }},
		field[SweepRequest]{"weights", func(r *SweepRequest) any { return &r.Weights }}),
	elems: func(l wireLimits) int { return 2*l.classes + l.sweepPoints },
}

// gridWire counts a grid point as holding at most MaxClasses class
// deltas.
var gridWire = wireType[GridRequest]{
	fields: specFields(
		func(r *GridRequest) *SwitchSpec { return &r.SwitchSpec },
		func(r *GridRequest) *DispatchSpec { return &r.DispatchSpec },
		field[GridRequest]{"algorithm", func(r *GridRequest) any { return &r.Algorithm }},
		field[GridRequest]{"points", func(r *GridRequest) any { return &r.Points }},
		field[GridRequest]{"weights", func(r *GridRequest) any { return &r.Weights }}),
	elems: func(l wireLimits) int { return 2*l.classes + l.gridPoints*(1+l.classes) },
}

var classFields = []field[ClassSpec]{
	{"name", func(c *ClassSpec) any { return &c.Name }},
	{"a", func(c *ClassSpec) any { return &c.A }},
	{"alpha", func(c *ClassSpec) any { return &c.Alpha }},
	{"beta", func(c *ClassSpec) any { return &c.Beta }},
	{"mu", func(c *ClassSpec) any { return &c.Mu }},
}

var sweepPointFields = []field[SweepPoint]{
	{"n1", func(p *SweepPoint) any { return &p.N1 }},
	{"n2", func(p *SweepPoint) any { return &p.N2 }},
}

var gridPointFields = []field[GridPoint]{
	{"n1", func(p *GridPoint) any { return &p.N1 }},
	{"n2", func(p *GridPoint) any { return &p.N2 }},
	{"classes", func(p *GridPoint) any { return &p.Classes }},
}

var deltaFields = []field[GridClassDelta]{
	{"class", func(d *GridClassDelta) any { return &d.Class }},
	{"alpha", func(d *GridClassDelta) any { return &d.Alpha }},
	{"beta", func(d *GridClassDelta) any { return &d.Beta }},
	{"mu", func(d *GridClassDelta) any { return &d.Mu }},
}

// strict returns the decode stage of one solve request type: the fast
// path first; outside its subset, the skim and then the reference.
func strict[Req any](t wireType[Req], lim wireLimits) func([]byte) (*Req, error) {
	most := t.elems(lim)
	return func(data []byte) (*Req, error) {
		if req, ok, err := decodeFast(data, lim, t.fields); ok || err != nil {
			return req, err
		}
		if n := countElements(data, most); n > most {
			return nil, badRequest("request holds more than %d array elements, the most the server limits admit", most)
		}
		return decodeJSON[Req](data)
	}
}

// decodeJSON is the reference decode of a solve request, with the
// server's strictness: unknown fields are rejected, and so is anything
// but white space after the JSON value.
func decodeJSON[Req any](data []byte) (*Req, error) {
	req := new(Req)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, badRequest("invalid JSON: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, badRequest("trailing data after JSON body")
	}
	return req, nil
}

// decodeFast decodes data into a fresh Req on the fast path. It
// reports ok false when the body lies outside the subset, and a non-nil
// error for an array over its limit.
func decodeFast[Req any](data []byte, lim wireLimits, fields []field[Req]) (req *Req, ok bool, err error) {
	s := scanner{data: data, lim: lim}
	req = new(Req)
	if !object(&s, fields, req) {
		return nil, false, s.err
	}
	s.space()
	if s.i != len(data) {
		return nil, false, nil
	}
	return req, true, nil
}

// scanner is the fast path's cursor over one body. A method returning
// false means the body lies outside the subset, unless err is set.
type scanner struct {
	data []byte
	i    int
	lim  wireLimits
	err  error // an array over its limit: a 400 the fast path settles
}

// maxSkipDepth bounds the nesting skip follows inside an over-limit
// array; a deeper body goes to the reference.
const maxSkipDepth = 8

func (s *scanner) space() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c after white space.
func (s *scanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// next consumes and returns the byte after white space (0 at the end).
func (s *scanner) next() byte {
	s.space()
	if s.i == len(s.data) {
		return 0
	}
	s.i++
	return s.data[s.i-1]
}

// str scans a string of the subset; the bytes returned alias data.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; {
		case c == '"':
			s.i++
			return s.data[start : s.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number scans a number in strict JSON grammar; integer reports that
// it has neither fraction nor exponent.
func (s *scanner) number() (num []byte, integer, ok bool) {
	s.space()
	start := s.i
	if s.i < len(s.data) && s.data[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.data) && s.data[s.i] == '0':
		s.i++
	case s.digits() == 0:
		return nil, false, false
	}
	integer = true
	if s.i < len(s.data) && s.data[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	if s.i < len(s.data) && (s.data[s.i] == 'e' || s.data[s.i] == 'E') {
		s.i++
		if s.i < len(s.data) && (s.data[s.i] == '+' || s.data[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	return s.data[start:s.i], integer, true
}

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.data) && s.data[s.i] >= '0' && s.data[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

func (s *scanner) int(p *int) bool {
	num, integer, ok := s.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	*p = int(n)
	return err == nil
}

func (s *scanner) float(p *float64) bool {
	num, _, ok := s.number()
	if !ok {
		return false
	}
	x, err := strconv.ParseFloat(string(num), 64)
	*p = x
	return err == nil
}

func (s *scanner) bool(p *bool) bool {
	s.space()
	rest := s.data[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		*p = true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		*p = false
	default:
		return false
	}
	return true
}

// value decodes the value of key into p, a pointer from a field table.
func (s *scanner) value(key string, p any) bool {
	switch p := p.(type) {
	case *int:
		return s.int(p)
	case *float64:
		return s.float(p)
	case **float64:
		var x float64
		if !s.float(&x) {
			return false
		}
		*p = &x
		return true
	case *bool:
		return s.bool(p)
	case *string:
		b, ok := s.str()
		*p = string(b)
		return ok
	case *[]float64:
		return array(s, p, "weights", s.lim.classes, s.float)
	case *[]int:
		noun := key
		if key == "state" {
			noun = "state counts"
		}
		return array(s, p, noun, s.lim.classes, s.int)
	case *[]ClassSpec:
		return array(s, p, "traffic classes", s.lim.classes, func(c *ClassSpec) bool { return object(s, classFields, c) })
	case *[]SweepPoint:
		return array(s, p, "sweep points", s.lim.sweepPoints, func(pt *SweepPoint) bool { return object(s, sweepPointFields, pt) })
	case *[]GridPoint:
		return array(s, p, "grid points", s.lim.gridPoints, func(pt *GridPoint) bool { return object(s, gridPointFields, pt) })
	case *[]GridClassDelta:
		return array(s, p, "class deltas in one grid point", s.lim.classes, func(d *GridClassDelta) bool { return object(s, deltaFields, d) })
	}
	return false
}

// object decodes one JSON object into v through its field table.
func object[T any](s *scanner, fields []field[T], v *T) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	var seen uint64
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return false
		}
		k := 0
		for k < len(fields) && fields[k].name != string(key) {
			k++
		}
		if k == len(fields) || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		if !s.value(fields[k].name, fields[k].ptr(v)) {
			return false
		}
		switch s.next() {
		case ',':
			continue
		case '}':
			return true
		}
		return false
	}
}

// array decodes one JSON array into *p, element by element. As
// encoding/json does, [] decodes to an empty non-nil slice. The
// element after the limit-th is never built: tooMany counts the rest
// for the 400.
func array[E any](s *scanner, p *[]E, noun string, limit int, elem func(*E) bool) bool {
	if !s.eat('[') {
		return false
	}
	out := []E{}
	if s.eat(']') {
		*p = out
		return true
	}
	for {
		if len(out) == limit {
			return s.tooMany(noun, limit)
		}
		if len(out) == 0 {
			out = make([]E, 0, min(limit, 4))
		}
		out = append(out, *new(E))
		if !elem(&out[len(out)-1]) {
			return false
		}
		switch s.next() {
		case ',':
			continue
		case ']':
			*p = out
			return true
		}
		return false
	}
}

// tooMany counts the elements of an array past its limit, skipping
// them unbuilt, and sets the 400. The texts for classes and points are
// the handlers' own.
func (s *scanner) tooMany(noun string, limit int) bool {
	n := limit
	for {
		if !s.skip(0) {
			return false
		}
		n++
		switch s.next() {
		case ',':
			continue
		case ']':
			s.err = badRequest("%d %s exceed the server limit %d", n, noun, limit)
		}
		return false
	}
}

// skip passes over one value of the subset without building it.
func (s *scanner) skip(depth int) bool {
	if depth > maxSkipDepth {
		return false
	}
	s.space()
	if s.i == len(s.data) {
		return false
	}
	switch s.data[s.i] {
	case '"':
		_, ok := s.str()
		return ok
	case 't', 'f':
		var b bool
		return s.bool(&b)
	case '{', '[':
		open := s.data[s.i]
		s.i++
		if s.eat(open + 2) { // '}' and ']' follow their openers by two
			return true
		}
		for {
			if open == '{' {
				if _, ok := s.str(); !ok || !s.eat(':') {
					return false
				}
			}
			if !s.skip(depth + 1) {
				return false
			}
			switch s.next() {
			case ',':
				continue
			case open + 2:
				return true
			}
			return false
		}
	}
	_, _, ok := s.number()
	return ok
}

// maxCountDepth is the deepest nesting countElements follows:
// encoding/json rejects anything deeper than 10000 levels without
// building it.
const maxCountDepth = 10048

// countElements is the reference path's bound, an allocation-free,
// escape-aware skim: it counts the array elements in data at any
// depth, stopping once the count passes limit.
func countElements(data []byte, limit int) int {
	var arrays [maxCountDepth / 64]uint64 // bit d set: the container at depth d is an array
	depth, n := 0, 0
	first := false // an array just opened: the next value is its first element
	for i := 0; i < len(data) && n <= limit; i++ {
		c := data[i]
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		}
		if first && c != ']' {
			n++
		}
		first = false
		switch c {
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			if depth == maxCountDepth {
				return n
			}
			bit := uint64(1) << (depth % 64)
			if c == '[' {
				arrays[depth/64] |= bit
				first = true
			} else {
				arrays[depth/64] &^= bit
			}
			depth++
		case ']', '}':
			depth = max(depth-1, 0)
		case ',':
			if depth > 0 && arrays[(depth-1)/64]&(1<<((depth-1)%64)) != 0 {
				n++
			}
		}
	}
	return n
}
