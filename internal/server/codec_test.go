package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"xbar/internal/core"
	"xbar/internal/rng"
)

// hotBodies are request bodies shaped like the hot-hit workload's:
// json.Marshal of two-class switches with full-precision loads, no
// names.
var hotBodies = []struct{ path, body string }{
	{"/v1/blocking", `{"n1":23,"n2":41,"classes":[{"a":1,"alpha":0.0027846571013396434,"mu":1.4370713181457036},{"a":2,"alpha":0.000012944073521047768,"beta":2.1538390145426703e-7,"mu":0.8016346541812498}]}`},
	{"/v1/revenue", `{"n1":23,"n2":41,"classes":[{"a":1,"alpha":0.0027846571013396434,"mu":1.4370713181457036},{"a":2,"alpha":0.000012944073521047768,"beta":2.1538390145426703e-7,"mu":0.8016346541812498}],"weights":[1.6309437130712745,3.215580513102532]}`},
	{"/v1/admission", `{"n1":23,"n2":41,"classes":[{"a":1,"alpha":0.0027846571013396434,"mu":1.4370713181457036},{"a":2,"alpha":0.000012944073521047768,"beta":2.1538390145426703e-7,"mu":0.8016346541812498}],"class":1,"weights":[1.6309437130712745,3.215580513102532]}`},
	{"/v1/sweep", `{"n1":23,"n2":41,"classes":[{"a":1,"alpha":0.0027846571013396434,"mu":1.4370713181457036}],"algorithm":"alg2","points":[{"n1":3,"n2":17},{"n1":23,"n2":41}]}`},
	{"/v1/grid", `{"n1":23,"n2":41,"units":"route","classes":[{"a":1,"alpha":0.0027846571013396434,"mu":1.4370713181457036}],"points":[{},{"n1":12},{"classes":[{"class":0,"alpha":0.003}]}],"weights":[2]}`},
}

// decodeCase is one request type under test: its fast path, its full
// decode stage and the switch specs whose cache keys it resolves to.
type decodeCase struct {
	path string
	// fast runs the fast path alone; ok false means it handed off.
	fast func(data []byte) (req any, ok bool, err error)
	// stage is the endpoint's whole decode stage.
	stage func(data []byte) (any, error)
	// reference is encoding/json's decode.
	reference func(data []byte) (any, error)
	// specs lists the switch specs a decoded request resolves to.
	specs func(req any) []SwitchSpec
}

func newDecodeCase[Req any](path string, t wireType[Req], lim wireLimits, specs func(*Req) []SwitchSpec) decodeCase {
	stage := strict(t, lim)
	return decodeCase{
		path: path,
		fast: func(data []byte) (any, bool, error) {
			req, ok, err := decodeFast(data, lim, t.fields)
			return req, ok, err
		},
		stage:     func(data []byte) (any, error) { return stage(data) },
		reference: func(data []byte) (any, error) { return decodeJSON[Req](data) },
		specs:     func(req any) []SwitchSpec { return specs(req.(*Req)) },
	}
}

// decodeCases lists the five solve request types under limits lim.
func decodeCases(lim wireLimits) []decodeCase {
	return []decodeCase{
		newDecodeCase("/v1/blocking", blockingWire, lim, func(r *BlockingRequest) []SwitchSpec { return []SwitchSpec{r.SwitchSpec} }),
		newDecodeCase("/v1/revenue", revenueWire, lim, func(r *RevenueRequest) []SwitchSpec { return []SwitchSpec{r.SwitchSpec} }),
		newDecodeCase("/v1/admission", admissionWire, lim, func(r *AdmissionRequest) []SwitchSpec { return []SwitchSpec{r.SwitchSpec} }),
		newDecodeCase("/v1/sweep", sweepWire, lim, func(r *SweepRequest) []SwitchSpec { return []SwitchSpec{r.SwitchSpec} }),
		newDecodeCase("/v1/grid", gridWire, lim, func(r *GridRequest) []SwitchSpec {
			specs := []SwitchSpec{r.SwitchSpec}
			for _, p := range r.Points {
				if spec, err := applyGridPoint(r.SwitchSpec, p); err == nil {
					specs = append(specs, spec)
				}
			}
			return specs
		}),
	}
}

// overLimit reports whether a decoded request holds an array longer
// than lim admits.
func overLimit(v reflect.Value, lim wireLimits) bool {
	switch v.Kind() {
	case reflect.Pointer:
		return !v.IsNil() && overLimit(v.Elem(), lim)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if overLimit(v.Field(i), lim) {
				return true
			}
		}
	case reflect.Slice:
		max := lim.classes
		switch v.Type().Elem() {
		case reflect.TypeOf(SweepPoint{}):
			max = lim.sweepPoints
		case reflect.TypeOf(GridPoint{}):
			max = lim.gridPoints
		}
		if v.Len() > max {
			return true
		}
		for i := 0; i < v.Len(); i++ {
			if overLimit(v.Index(i), lim) {
				return true
			}
		}
	}
	return false
}

// FuzzWireDecode holds the fast decode path to the encoding/json
// reference on all five solve request types: a body the fast path
// accepts, the reference accepts too, into a reflect.DeepEqual value
// (nil versus empty slice included); a body the fast path rejects for
// an array over its limit, the limits reject. Every body the decode
// stage accepts keeps its cache keys through a json.Marshal round trip.
func FuzzWireDecode(f *testing.F) {
	for _, tc := range validationCases {
		for i, p := range fuzzPaths {
			if p == tc.path {
				f.Add(uint8(i), []byte(tc.body))
			}
		}
	}
	for _, st := range wireSteps {
		for i, p := range fuzzPaths {
			if p == st.path {
				f.Add(uint8(i), []byte(st.body))
			}
		}
	}
	for _, hb := range hotBodies {
		for i, p := range fuzzPaths {
			if p == hb.path {
				f.Add(uint8(i), []byte(hb.body))
			}
		}
	}
	f.Add(uint8(0), []byte(`{"n1":4,"n2":4,"classes":[{"a":1,"alpha":0.1,"beta":-0,"mu":1}]}`))
	f.Add(uint8(2), []byte(`{"n1":4,"n2":4,"classes":[{"a":1,"alpha":0.1,"mu":1}],"class":0,"policy":"reservation","limits":[4],"state":[]}`))
	f.Add(uint8(3), []byte(`{"n1":4,"n2":4,"classes":[{"a":1,"alpha":0.1,"mu":1}],"points":[]}`))
	f.Add(uint8(4), []byte(`{"n1":4,"n2":4,"classes":[{"a":1,"alpha":0.1,"mu":1}],"points":[{"classes":[]},{"classes":[{"class":0,"beta":-0}]}]}`))
	s, err := New(Config{MaxDim: 16, MaxClasses: 3, MaxSweepPoints: 4, MaxGridPoints: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	lim := wireLimits{classes: s.cfg.MaxClasses, sweepPoints: s.cfg.MaxSweepPoints, gridPoints: s.cfg.MaxGridPoints}
	cases := decodeCases(lim)
	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		tc := cases[int(ep)%len(cases)]
		fast, ok, fastErr := tc.fast(body)
		ref, refErr := tc.reference(body)
		switch {
		case fastErr != nil:
			if refErr == nil && !overLimit(reflect.ValueOf(ref), lim) {
				t.Fatalf("%s %q: fast path rejected %v, but the limits admit the reference's %+v", tc.path, body, fastErr, ref)
			}
		case ok:
			if refErr != nil {
				t.Fatalf("%s %q: fast path accepted %+v, reference rejected: %v", tc.path, body, fast, refErr)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("%s %q: fast path decoded\n%#v\nreference decoded\n%#v", tc.path, body, fast, ref)
			}
		}

		req, err := tc.stage(body)
		if err != nil {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%s %q: marshal: %v", tc.path, body, err)
		}
		req2, err := tc.stage(again)
		if err != nil {
			t.Fatalf("%s %q: the round trip %s does not decode: %v", tc.path, body, again, err)
		}
		specs, specs2 := tc.specs(req), tc.specs(req2)
		if len(specs) != len(specs2) {
			t.Fatalf("%s %q: %d switch specs, %d after the round trip %s", tc.path, body, len(specs), len(specs2), again)
		}
		for i, spec := range specs {
			sw, err := s.buildSwitchFor(spec, nil)
			if err != nil {
				continue
			}
			sw2, err := s.buildSwitchFor(specs2[i], nil)
			if err != nil {
				t.Fatalf("%s %q: spec %d builds, but not after the round trip %s: %v", tc.path, body, i, again, err)
			}
			if k, k2 := cacheKey(alg1, sw), cacheKey(alg1, sw2); k != k2 {
				t.Fatalf("%s %q: cache key %s becomes %s after the round trip %s", tc.path, body, k, k2, again)
			}
		}
	})
}

// TestMarshalTakesFastPath pins the property the decode gain rests on:
// json.Marshal of any request value whose strings are plain ASCII (no
// character encoding/json escapes) lies inside the fast path's subset.
// Every body the load generator sends outside /v1/scenario is one.
// The slices without omitempty (classes, revenue weights, grid points)
// are never nil here: json.Marshal writes a nil one as null, which lies
// outside the subset, and a request without them is a 400.
func TestMarshalTakesFastPath(t *testing.T) {
	st := rng.NewStream(7)
	const plain = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-.:/()[]{}!?#$%'*+,;=@^`|~"
	name := func() string {
		b := make([]byte, st.Intn(8))
		for i := range b {
			b[i] = plain[st.Intn(len(plain))]
		}
		return string(b)
	}
	num := func() float64 {
		switch st.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Float64frombits(st.Uint64() &^ (0x7ff << 52)) // subnormal
		case 3:
			return math.Ldexp(st.Float64(), st.Intn(200)-100)
		}
		x := math.Float64frombits(st.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 1e21
		}
		return x
	}
	ints := func() []int {
		if st.Intn(3) == 0 {
			return nil
		}
		xs := make([]int, st.Intn(4))
		for i := range xs {
			xs[i] = int(st.Uint64()) >> st.Intn(64)
		}
		return xs
	}
	floats := func() []float64 {
		if st.Intn(3) == 0 {
			return nil
		}
		xs := make([]float64, st.Intn(4))
		for i := range xs {
			xs[i] = num()
		}
		return xs
	}
	opt := func() *float64 {
		if st.Intn(2) == 0 {
			return nil
		}
		x := num()
		return &x
	}
	spec := func() SwitchSpec {
		sp := SwitchSpec{N1: st.Intn(1 << 20), N2: -st.Intn(100), Units: name(), Classes: []ClassSpec{}}
		for i := st.Intn(4); i > 0; i-- {
			sp.Classes = append(sp.Classes, ClassSpec{Name: name(), A: st.Intn(5), Alpha: num(), Beta: num(), Mu: num()})
		}
		return sp
	}
	disp := func() DispatchSpec { return DispatchSpec{Dispatch: name(), Tolerance: num()} }
	lim := wireLimits{classes: 64, sweepPoints: 4096, gridPoints: 256}
	cases := decodeCases(lim)
	for i := 0; i < 2000; i++ {
		var points []SweepPoint
		grid := []GridPoint{}
		for k := st.Intn(4); k > 0; k-- {
			points = append(points, SweepPoint{N1: st.Intn(100), N2: st.Intn(100)})
			gp := GridPoint{N1: st.Intn(100)}
			for j := st.Intn(3); j > 0; j-- {
				gp.Classes = append(gp.Classes, GridClassDelta{Class: st.Intn(4), Alpha: opt(), Beta: opt(), Mu: opt()})
			}
			grid = append(grid, gp)
		}
		reqs := []any{
			BlockingRequest{SwitchSpec: spec(), DispatchSpec: disp(), Algorithm: name()},
			RevenueRequest{SwitchSpec: spec(), DispatchSpec: disp(), Weights: append([]float64{}, floats()...), Gradients: st.Intn(2) == 0, Step: num()},
			AdmissionRequest{SwitchSpec: spec(), DispatchSpec: disp(), Class: st.Intn(4), Policy: name(), Weights: floats(), Limits: ints(), State: ints()},
			SweepRequest{SwitchSpec: spec(), DispatchSpec: disp(), Algorithm: name(), Points: points, Weights: floats()},
			GridRequest{SwitchSpec: spec(), DispatchSpec: disp(), Algorithm: name(), Points: grid, Weights: floats()},
		}
		for k, req := range reqs {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := cases[k].fast(body); !ok || err != nil {
				t.Fatalf("%s: json.Marshal body %s left the fast path (err %v)", cases[k].path, body, err)
			}
		}
	}
}

// TestNoWireMarshalers guards the exported wire types against custom
// JSON methods: one would change every json.Marshal of them, including
// the load generator's bodies and its oracle comparison.
func TestNoWireMarshalers(t *testing.T) {
	marshaler := reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	unmarshaler := reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()
	for _, v := range []any{
		ClassSpec{}, SwitchSpec{}, DispatchSpec{}, SweepPoint{}, GridPoint{}, GridClassDelta{},
		BlockingRequest{}, RevenueRequest{}, AdmissionRequest{}, SweepRequest{}, GridRequest{},
		ClassResult{}, ClassRevenue{}, SweepResult{},
		BlockingResponse{}, RevenueResponse{}, AdmissionResponse{}, SweepResponse{}, GridResponse{},
	} {
		for _, typ := range []reflect.Type{reflect.TypeOf(v), reflect.PointerTo(reflect.TypeOf(v))} {
			if typ.Implements(marshaler) || typ.Implements(unmarshaler) {
				t.Errorf("%v implements a JSON marshaling interface", typ)
			}
		}
	}
}

// capBody fills a body up to a 1 MiB cap with copies of elem between
// head and tail.
func capBody(head, elem, tail string) string {
	n := (1<<20 - len(head) - len(tail) + 1) / (len(elem) + 1)
	return head + strings.TrimSuffix(strings.Repeat(elem+",", n), ",") + tail
}

// TestCapSizedBodies sends bodies at the 1 MiB cap whose arrays the
// server limits reject: each must get its 400 having allocated less
// than 4 MiB, on the fast decode path and, with an escaped class name
// forcing it, on the encoding/json path.
func TestCapSizedBodies(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const class = `{"a":1,"alpha":0.1,"mu":1}`
	rows := []struct{ name, path, head, elem, tail string }{
		{"classes", "/v1/blocking", `{"n1":4,"n2":4,"classes":[`, `{}`, `]}`},
		{"grid points", "/v1/grid", `{"n1":4,"n2":4,"classes":[` + class + `],"points":[`, `{}`, `]}`},
		{"sweep points", "/v1/sweep", `{"n1":4,"n2":4,"classes":[` + class + `],"points":[`, `{}`, `]}`},
		{"weights", "/v1/revenue", `{"n1":4,"n2":4,"classes":[` + class + `],"weights":[`, `0`, `]}`},
		{"state", "/v1/admission", `{"n1":4,"n2":4,"classes":[` + class + `],"class":0,"policy":"reservation","limits":[4],"state":[`, `0`, `]}`},
		{"grid deltas", "/v1/grid", `{"n1":4,"n2":4,"classes":[` + class + `],"points":[{"classes":[`, `{}`, `]}]}`},
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for _, row := range rows {
		escaped := strings.Replace(row.head, `"classes":[{`, `"classes":[{"name":"\u0063",`, 1)
		if row.name == "classes" {
			escaped = row.head + `{"name":"\u0063"},`
		}
		for _, path := range []struct{ name, head string }{{"fast", row.head}, {"reference", escaped}} {
			body := capBody(path.head, row.elem, row.tail)
			if len(body) > 1<<20 {
				t.Fatalf("%s: body of %d bytes is over the cap", row.name, len(body))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, row.path, strings.NewReader(body)))
			runtime.ReadMemStats(&after)
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s, %s path: %d %s after %d bytes", row.name, path.name, rec.Code, bytes.TrimSpace(rec.Body.Bytes()), alloc)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s, %s path: status %d, want 400: %s", row.name, path.name, rec.Code, rec.Body.Bytes())
			}
			if alloc >= 4<<20 {
				t.Errorf("%s, %s path: rejected after allocating %d bytes, want < 4 MiB", row.name, path.name, alloc)
			}
		}
	}
}

// TestArrayLimitTexts pins the fast path's 400 texts at the limits: the
// classes and points texts are the handlers' own, with the full count.
func TestArrayLimitTexts(t *testing.T) {
	s, err := New(Config{MaxClasses: 2, MaxSweepPoints: 3, MaxGridPoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const class = `{"a":1,"alpha":0.1,"mu":1}`
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/blocking", `{"n1":4,"n2":4,"classes":[{},{},{},{}]}`, "4 traffic classes exceed the server limit 2"},
		{"/v1/sweep", `{"n1":4,"n2":4,"classes":[` + class + `],"points":[{},{},{},{"n1":1,"n2":1}]}`, "4 sweep points exceed the server limit 3"},
		{"/v1/grid", `{"n1":4,"n2":4,"classes":[` + class + `],"points":[{},{},{}]}`, "3 grid points exceed the server limit 2"},
		{"/v1/revenue", `{"n1":4,"n2":4,"classes":[` + class + `],"weights":[1,2,3]}`, "3 weights exceed the server limit 2"},
		{"/v1/admission", `{"n1":4,"n2":4,"classes":[` + class + `],"class":0,"limits":[1,1,1]}`, "3 limits exceed the server limit 2"},
		{"/v1/admission", `{"n1":4,"n2":4,"classes":[` + class + `],"class":0,"state":[0,0,0]}`, "3 state counts exceed the server limit 2"},
		{"/v1/grid", `{"n1":4,"n2":4,"classes":[` + class + `],"points":[{"classes":[{},{},{}]}]}`, "3 class deltas in one grid point exceed the server limit 2"},
		{"/v1/blocking", `{"n1":4,"n2":4,"classes":[{"name":"\u0063"},{},{}]}`, "request holds more than 2 array elements, the most the server limits admit"},
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		var doc struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || rec.Code != http.StatusBadRequest || doc.Error != tc.want {
			t.Errorf("%s %s: %d %s, want 400 %q", tc.path, tc.body, rec.Code, rec.Body.Bytes(), tc.want)
		}
	}
}

// encodeInput draws response values from fuzz bytes: names that need
// escaping, ±0, subnormals, 1e-7, 1e21, NaN and nil slices.
type encodeInput struct{ data []byte }

func (in *encodeInput) byte() byte {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return b
}

func (in *encodeInput) float() float64 {
	special := [...]float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e21, 1e-6, 999999999999999999999, 5e-324,
		math.Float64frombits(1<<52 - 1), math.NaN(), math.Inf(1), math.Inf(-1), 1, 0.1, 123456789, 1e-300}
	if b := in.byte(); b < 0x80 {
		return special[int(b)%len(special)]
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(in.byte())
	}
	return math.Float64frombits(bits)
}

func (in *encodeInput) str() string {
	words := [...]string{"", "exact", "asymptotic", "alg1", "voice", "<b>", "a&b", `q"uote`, `back\slash`, "tab\t", "é", "\u2028", "\xff"}
	return words[int(in.byte())%len(words)]
}

func (in *encodeInput) int() int { return int(int8(in.byte())) << (in.byte() % 56) }

func (in *encodeInput) floats() []float64 {
	n := int(in.byte() % 5)
	if n == 4 {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = in.float()
	}
	return xs
}

func (in *encodeInput) opt() *float64 {
	if in.byte()%2 == 0 {
		return nil
	}
	x := in.float()
	return &x
}

func (in *encodeInput) rows() []SweepResult {
	n := int(in.byte() % 4)
	if n == 3 {
		return nil
	}
	rows := make([]SweepResult, n)
	for i := range rows {
		rows[i] = SweepResult{N1: in.int(), N2: in.int(), Tier: in.str(), Blocking: in.floats(),
			Concurrency: in.floats(), ErrorBound: in.floats(), W: in.opt()}
	}
	return rows
}

// doc draws one response document of the type selected by kind.
func (in *encodeInput) doc(kind uint8) any {
	switch kind % 5 {
	case 0:
		r := BlockingResponse{N1: in.int(), N2: in.int(), Method: in.str(), Tier: in.str(), LogG: in.float(),
			Utilization: in.float(), Cached: in.byte()%2 == 0}
		if n := int(in.byte() % 4); n < 3 {
			r.Classes = make([]ClassResult, n)
			for i := range r.Classes {
				r.Classes[i] = ClassResult{Name: in.str(), A: in.int(), Blocking: in.float(), NonBlocking: in.float(),
					Concurrency: in.float(), Throughput: in.float(), ErrorBound: in.float()}
			}
		}
		return r
	case 1:
		r := RevenueResponse{N1: in.int(), N2: in.int(), W: in.float(), Tier: in.str(), Cached: in.byte()%2 == 0}
		for n := int(in.byte() % 3); n > 0; n-- {
			r.Classes = append(r.Classes, ClassRevenue{Name: in.str(), Weight: in.float(), ShadowCost: in.float(),
				Profitable: in.byte()%2 == 0, GradRhoClosed: in.float(), GradBetaMu: in.opt(), ErrorBound: in.float()})
		}
		return r
	case 2:
		r := AdmissionResponse{Accept: in.byte()%2 == 0, Policy: in.str(), Class: in.int(), Tier: in.str(),
			Weight: in.opt(), ShadowCost: in.opt(), Cached: in.byte()%2 == 0}
		if in.byte()%2 == 0 {
			occ := in.int()
			r.Occupancy = &occ
		}
		return r
	case 3:
		return SweepResponse{N1: in.int(), N2: in.int(), Method: in.str(), Cached: in.byte()%2 == 0, Results: in.rows()}
	}
	return GridResponse{Method: in.str(), Points: in.int(), Models: in.int(), Cached: in.int(), Asymptotic: in.int(), Results: in.rows()}
}

// FuzzWireEncode holds the append encoders to encoding/json: for any
// response value, the fast encoding is byte for byte
// json.NewEncoder(buf).Encode's, or the encoder handed off.
func FuzzWireEncode(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{2, 3, 1, 4, 5, 6, 7, 8, 0, 2, 9, 10, 3, 4})
	for k := uint8(0); k < 5; k++ {
		f.Add(k, []byte("\x01\x02\x03\x04\x05\x06\x07\x08\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"))
		f.Add(k, []byte("\x81\x7f\xf0\x00\x00\x00\x00\x01\x80\x00\x00\x00\x00\x00\x00\x00\x90\x3e\xb0\xc6\xf7\xa0\xb5\xed\x8d\x01\x02"))
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		in := encodeInput{data: data}
		doc := in.doc(kind)
		fast, ok := appendResponse(nil, doc)
		var want bytes.Buffer
		err := json.NewEncoder(&want).Encode(doc)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("%#v: fast encoder wrote %s, encoding/json failed: %v", doc, fast, err)
		}
		if !bytes.Equal(fast, want.Bytes()) {
			t.Fatalf("%#v:\nfast:          %s\nencoding/json: %s", doc, fast, want.Bytes())
		}
	})
}

func BenchmarkWireDecode(b *testing.B) {
	lim := wireLimits{classes: 64, sweepPoints: 4096, gridPoints: 256}
	for _, tc := range decodeCases(lim) {
		var body []byte
		for _, hb := range hotBodies {
			if hb.path == tc.path {
				body = []byte(hb.body)
			}
		}
		name := strings.TrimPrefix(tc.path, "/v1/")
		b.Run(name+"/fast", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok, _ := tc.fast(body); !ok {
					b.Fatal("left the fast path")
				}
			}
		})
		b.Run(name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.reference(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// warmDocs serves each hot body once on a warm server and returns the
// decoded response documents, as the handlers build them.
func warmDocs(b *testing.B) []any {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	var docs []any
	for _, hb := range hotBodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, hb.path, strings.NewReader(hb.body)))
		var doc any
		switch hb.path {
		case "/v1/blocking":
			doc = new(BlockingResponse)
		case "/v1/revenue":
			doc = new(RevenueResponse)
		case "/v1/admission":
			doc = new(AdmissionResponse)
		case "/v1/sweep":
			doc = new(SweepResponse)
		default:
			doc = new(GridResponse)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), doc); err != nil {
			b.Fatalf("%s: %v: %s", hb.path, err, rec.Body.Bytes())
		}
		docs = append(docs, reflect.ValueOf(doc).Elem().Interface())
	}
	return docs
}

func BenchmarkWireEncode(b *testing.B) {
	for i, doc := range warmDocs(b) {
		name := strings.TrimPrefix(hotBodies[i].path, "/v1/")
		b.Run(name+"/fast", func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 4096)
			for i := 0; i < b.N; i++ {
				var ok bool
				if buf, ok = appendResponse(buf[:0], doc); !ok {
					b.Fatal("handed off")
				}
			}
		})
		b.Run(name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSignedZeroBetaSharesEntry backs the cache key's sign-blind zero:
// json.Marshal drops a -0 beta as omitempty, so a request and its
// round trip differ only in the sign of a zero, and every lattice read
// must be bit-identical either way.
func TestSignedZeroBetaSharesEntry(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	negZero := math.Copysign(0, -1)
	for _, alg := range []string{alg1, alg2} {
		for _, n := range []int{5, 24} {
			sws := [2]core.Switch{}
			for i, beta := range []float64{0, negZero} {
				sws[i] = core.Switch{N1: n, N2: n + 3, Classes: []core.Class{
					{A: 1, Alpha: 0.01, Beta: beta, Mu: 1},
					{A: 2, Alpha: 0.002, Beta: 0.0005, Mu: 0.5},
				}}
			}
			if k0, k1 := cacheKey(alg, sws[0]), cacheKey(alg, sws[1]); k0 != k1 {
				t.Errorf("%s N=%d: keys %s and %s differ", alg, n, k0, k1)
			}
			var got [2][]uint64
			for i, sw := range sws {
				e, err := s.solvers.fill(alg, sw)
				if err != nil {
					t.Fatal(err)
				}
				for _, sub := range [][2]int{{n, n + 3}, {1, 2}, {n / 2, n}} {
					res := e.resultAt(sub[0], sub[1])
					got[i] = append(got[i], math.Float64bits(res.LogG))
					for _, xs := range [][]float64{res.Blocking, res.NonBlocking, res.Concurrency} {
						for _, x := range xs {
							got[i] = append(got[i], math.Float64bits(x))
						}
					}
				}
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("%s N=%d: beta 0 and -0 read different lattices", alg, n)
			}
		}
	}
}
