package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xbar/internal/core"
	"xbar/internal/revenue"
)

// newTestServer builds a Server with test-friendly limits and an
// httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts body to path and decodes the response into out,
// returning the status code.
func postJSON(t *testing.T, ts *httptest.Server, path string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

// paperSpec is the paper's Figure 1 Poisson operating point at 16x16:
// one class, a = 1, alpha~ = .0024, mu = 1.
func paperSpec(n int) SwitchSpec {
	return SwitchSpec{
		N1: n, N2: n,
		Classes: []ClassSpec{{Name: "smooth", A: 1, Alpha: 0.0024, Mu: 1}},
	}
}

func paperSwitch(n int) core.Switch {
	return core.NewSwitch(n, n, core.AggregateClass{Name: "smooth", A: 1, AlphaTilde: 0.0024, Mu: 1})
}

// figure1Golden reads the committed results/figure1.csv blocking value
// for size n from the beta~=0 column.
func figure1Golden(t *testing.T, n int) float64 {
	t.Helper()
	data, err := os.ReadFile("../../results/figure1.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n")[1:] {
		fields := strings.Split(strings.TrimSpace(line), ",")
		if len(fields) < 2 || fields[0] != strconv.Itoa(n) {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	t.Fatalf("no N=%d row in results/figure1.csv", n)
	return 0
}

// TestBlockingGolden is the acceptance gate: /v1/blocking must serve
// the committed results/figure1.csv value to 1e-9 and be bit-identical
// to a direct core.Solve of the same switch.
func TestBlockingGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp BlockingResponse
	if code := postJSON(t, ts, "/v1/blocking", BlockingRequest{SwitchSpec: paperSpec(16)}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want := figure1Golden(t, 16)
	if got := resp.Classes[0].Blocking; math.Abs(got-want) > 1e-9 {
		t.Errorf("blocking = %v, want %v from results/figure1.csv (|diff| %g)", got, want, math.Abs(got-want))
	}
	direct, err := core.Solve(paperSwitch(16))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Classes[0].Blocking != direct.Blocking[0] {
		t.Errorf("blocking = %x, core.Solve = %x; JSON round-trip must be bit-identical",
			resp.Classes[0].Blocking, direct.Blocking[0])
	}
	if resp.Classes[0].Concurrency != direct.Concurrency[0] {
		t.Errorf("concurrency = %x, core.Solve = %x", resp.Classes[0].Concurrency, direct.Concurrency[0])
	}
	if resp.LogG != direct.LogG {
		t.Errorf("log_g = %x, core.Solve = %x", resp.LogG, direct.LogG)
	}
	if resp.Method != "algorithm1" {
		t.Errorf("method = %q", resp.Method)
	}
	if resp.Cached {
		t.Error("first solve reported cached")
	}

	// Same request again: served from cache, identical numbers.
	var again BlockingResponse
	if code := postJSON(t, ts, "/v1/blocking", BlockingRequest{SwitchSpec: paperSpec(16)}, &again); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !again.Cached {
		t.Error("second solve not served from cache")
	}
	if again.Classes[0].Blocking != resp.Classes[0].Blocking {
		t.Error("cached read disagrees with the fill")
	}
}

// TestBlockingAlg2 pins the Algorithm 2 path and the route-units
// spelling of the same model.
func TestBlockingAlg2(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := paperSpec(12)
	var a1, a2 BlockingResponse
	if code := postJSON(t, ts, "/v1/blocking", BlockingRequest{SwitchSpec: spec}, &a1); code != http.StatusOK {
		t.Fatalf("alg1 status %d", code)
	}
	if code := postJSON(t, ts, "/v1/blocking", BlockingRequest{SwitchSpec: spec, Algorithm: "alg2"}, &a2); code != http.StatusOK {
		t.Fatalf("alg2 status %d", code)
	}
	if a2.Method != "algorithm2" {
		t.Errorf("method = %q", a2.Method)
	}
	if math.Abs(a1.Classes[0].Blocking-a2.Classes[0].Blocking) > 1e-12 {
		t.Errorf("alg1 %v vs alg2 %v", a1.Classes[0].Blocking, a2.Classes[0].Blocking)
	}

	perRoute := paperSwitch(12).Classes[0]
	routeSpec := SwitchSpec{N1: 12, N2: 12, Units: "route", Classes: []ClassSpec{
		{Name: "smooth", A: 1, Alpha: perRoute.Alpha, Mu: perRoute.Mu},
	}}
	var ar BlockingResponse
	if code := postJSON(t, ts, "/v1/blocking", BlockingRequest{SwitchSpec: routeSpec}, &ar); code != http.StatusOK {
		t.Fatalf("route-units status %d", code)
	}
	if ar.Classes[0].Blocking != a1.Classes[0].Blocking {
		t.Error("route units disagree with aggregate units for the same per-route model")
	}
	if !ar.Cached {
		t.Error("identical per-route model missed the cache: canonicalization broken")
	}
}

// TestConcurrentIdenticalRequests is the single-flight guarantee
// under -race: N concurrent identical requests share exactly one
// lattice fill.
func TestConcurrentIdenticalRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const n = 32
	spec := paperSpec(96) // big enough that the fill takes a moment
	var wg sync.WaitGroup
	errs := make([]error, n)
	blocking := make([]float64, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			buf, _ := json.Marshal(BlockingRequest{SwitchSpec: spec})
			resp, err := http.Post(ts.URL+"/v1/blocking", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var br BlockingResponse
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				errs[i] = err
				return
			}
			blocking[i] = br.Classes[0].Blocking
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if blocking[i] != blocking[0] {
			t.Fatalf("request %d read %x, request 0 read %x", i, blocking[i], blocking[0])
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.Cache.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (single flight)", snap.Cache.Misses)
	}
	if got := snap.Cache.Hits + snap.Cache.SharedInFlight; got != n-1 {
		t.Errorf("hits + shared = %d, want %d", got, n-1)
	}
}

// TestConcurrentEntryReads pins that a filled entry is read-only:
// blocking, revenue (with a Pascal gradient), admission, sweep and
// grid requests all read one Algorithm 1 lattice at once, and
// blocking, sweep and grid requests one Algorithm 2 lattice, with no
// lock between them. Every body is byte-identical to the same request
// served alone (cold for the one request that filled, warm for the
// rest), and each algorithm fills exactly once.
func TestConcurrentEntryReads(t *testing.T) {
	spec := SwitchSpec{N1: 16, N2: 16, Units: "route", Classes: []ClassSpec{
		{Name: "smooth", A: 1, Alpha: 0.002, Mu: 1},
		{Name: "peaky", A: 2, Alpha: 0.0003, Beta: 0.0001, Mu: 0.5},
		{Name: "finite", A: 3, Alpha: 0.00004, Beta: -0.000002, Mu: 1},
	}}
	weights := []float64{1, 2, 3}
	points := []SweepPoint{{N1: 16, N2: 16}, {N1: 9, N2: 12}, {N1: 3, N2: 3}, {N1: 16, N2: 1}}
	gridPoints := []GridPoint{{}, {N1: 7}, {N1: 12, N2: 5}}
	type request struct {
		alg, path string
		body      []byte
	}
	var reqs []request
	add := func(alg, path string, body any) {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, request{alg, path, buf})
	}
	for _, alg := range []string{alg1, alg2} {
		add(alg, "/v1/blocking", BlockingRequest{SwitchSpec: spec, Algorithm: alg})
		add(alg, "/v1/sweep", SweepRequest{SwitchSpec: spec, Algorithm: alg, Points: points, Weights: weights})
		add(alg, "/v1/grid", GridRequest{SwitchSpec: spec, Algorithm: alg, Points: gridPoints, Weights: weights})
	}
	add(alg1, "/v1/revenue", RevenueRequest{SwitchSpec: spec, Weights: weights, Gradients: true})
	add(alg1, "/v1/admission", AdmissionRequest{SwitchSpec: spec, Class: 1, Weights: weights})
	serve := func(h http.Handler, r request) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
		return rec.Code, rec.Body.String()
	}
	cfg := Config{RequestTimeout: time.Minute}

	// Each request served alone, on a server of its own: the cold body
	// fills, the warm one reads the entry.
	cold, warm := make([]string, len(reqs)), make([]string, len(reqs))
	for i, r := range reqs {
		alone, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := alone.Handler()
		for _, out := range []*string{&cold[i], &warm[i]} {
			code, body := serve(h, r)
			if code != http.StatusOK {
				t.Fatalf("%s %s alone: status %d: %s", r.alg, r.path, code, body)
			}
			*out = body
		}
		if cold[i] == warm[i] {
			t.Fatalf("%s %s: cold and warm bodies agree; the test cannot tell the filler", r.alg, r.path)
		}
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const goroutines, rounds = 16, 2
	var mu sync.Mutex
	colds := map[string]int{}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < rounds*len(reqs); k++ {
				i := (g + k) % len(reqs)
				r := reqs[i]
				code, body := serve(h, r)
				switch {
				case code != http.StatusOK:
					t.Errorf("%s %s: status %d: %s", r.alg, r.path, code, body)
				case body == cold[i]:
					mu.Lock()
					colds[r.alg]++
					mu.Unlock()
				case body != warm[i]:
					t.Errorf("%s %s: body differs from the request served alone:\n got %s\nwant %s", r.alg, r.path, body, warm[i])
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for _, alg := range []string{alg1, alg2} {
		if colds[alg] != 1 {
			t.Errorf("%s: %d requests filled the lattice, want exactly 1", alg, colds[alg])
		}
	}
	if m := s.Metrics().Snapshot().Cache.Misses; m != 2 {
		t.Errorf("misses = %d, want 2 (one per algorithm)", m)
	}
}

// TestConcurrentDistinctRequests drives different operating points
// concurrently (race coverage for the cache's list, hand and flights)
// and checks each against a direct solve.
func TestConcurrentDistinctRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sizes := []int{4, 8, 12, 16, 20, 24, 28, 32}
	var wg sync.WaitGroup
	errs := make([]error, len(sizes))
	for i, n := range sizes {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			var br BlockingResponse
			buf, _ := json.Marshal(BlockingRequest{SwitchSpec: paperSpec(n)})
			resp, err := http.Post(ts.URL+"/v1/blocking", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				errs[i] = err
				return
			}
			direct, err := core.Solve(paperSwitch(n))
			if err != nil {
				errs[i] = err
				return
			}
			if br.Classes[0].Blocking != direct.Blocking[0] {
				errs[i] = fmt.Errorf("N=%d: %x != %x", n, br.Classes[0].Blocking, direct.Blocking[0])
			}
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheEvictionAndRecycling squeezes distinct operating points
// through a 2-entry cache and checks the cache evicts and the free pool
// recycles lattices.
func TestCacheEvictionAndRecycling(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 2})
	for round := 0; round < 2; round++ {
		for _, n := range []int{4, 6, 8, 10} {
			var br BlockingResponse
			if code := postJSON(t, ts, "/v1/blocking", BlockingRequest{SwitchSpec: paperSpec(n)}, &br); code != http.StatusOK {
				t.Fatalf("N=%d status %d", n, code)
			}
			direct, err := core.Solve(paperSwitch(n))
			if err != nil {
				t.Fatal(err)
			}
			if br.Classes[0].Blocking != direct.Blocking[0] {
				t.Fatalf("N=%d disagrees with direct solve after eviction churn", n)
			}
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.Cache.Evictions == 0 {
		t.Error("no evictions through a 2-entry cache")
	}
	if snap.Cache.SolversRecycled == 0 {
		t.Error("no solver recycling despite evictions")
	}
	if got := s.cache.len(); got > 2 {
		t.Errorf("cache holds %d entries, cap 2", got)
	}
}

// TestRevenueEndpoint checks /v1/revenue against the revenue package
// driven directly.
func TestRevenueEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := SwitchSpec{N1: 8, N2: 8, Classes: []ClassSpec{
		{Name: "narrow", A: 1, Alpha: 0.0024, Mu: 1},
		{Name: "wide", A: 2, Alpha: 0.0012, Beta: 0.0004, Mu: 0.5},
	}}
	weights := []float64{1, 0.2}
	var resp RevenueResponse
	code := postJSON(t, ts, "/v1/revenue", RevenueRequest{SwitchSpec: spec, Weights: weights, Gradients: true}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	sw := core.NewSwitch(8, 8,
		core.AggregateClass{Name: "narrow", A: 1, AlphaTilde: 0.0024, Mu: 1},
		core.AggregateClass{Name: "wide", A: 2, AlphaTilde: 0.0012, BetaTilde: 0.0004, Mu: 0.5})
	an, err := revenue.New(sw, weights)
	if err != nil {
		t.Fatal(err)
	}
	if resp.W != an.W() {
		t.Errorf("W = %x, want %x", resp.W, an.W())
	}
	for i := range weights {
		if resp.Classes[i].ShadowCost != an.ShadowCost(i) {
			t.Errorf("shadow_cost[%d] = %x, want %x", i, resp.Classes[i].ShadowCost, an.ShadowCost(i))
		}
		if resp.Classes[i].Profitable != an.Profitable(i) {
			t.Errorf("profitable[%d] = %v", i, resp.Classes[i].Profitable)
		}
		if resp.Classes[i].GradRhoClosed != an.GradientRhoClosed(i) {
			t.Errorf("grad_rho_closed[%d] mismatch", i)
		}
	}
	if resp.Classes[0].GradBetaMu != nil {
		t.Error("Poisson class got a beta gradient")
	}
	if resp.Classes[1].GradBetaMu == nil {
		t.Error("bursty class missing its beta gradient")
	} else if want := an.GradientBetaMu(1, 1e-4); math.Abs(*resp.Classes[1].GradBetaMu-want) > math.Abs(want)*1e-9+1e-12 {
		t.Errorf("grad_beta_mu = %v, want %v", *resp.Classes[1].GradBetaMu, want)
	}

	if code := postJSON(t, ts, "/v1/revenue", RevenueRequest{SwitchSpec: spec, Weights: []float64{1}}, nil); code != http.StatusBadRequest {
		t.Errorf("mismatched weights: status %d, want 400", code)
	}
}

// TestRevenueGradientProbes pins /v1/revenue's gradient answers at
// the edge of the valid parameter region: a Bernoulli class gets no
// grad_beta_mu (its beta cannot move off the integer population), and
// a step that pushes a Pascal class's beta/mu past 1 is a 422 naming
// the class. Neither is a 500.
func TestRevenueGradientProbes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
		// msg is a substring of the 422 error; for 200s, gradBeta says
		// which classes carry grad_beta_mu.
		msg      string
		gradBeta []bool
	}{
		{
			name:     "bernoulli default step",
			body:     `{"n1":8,"n2":8,"units":"route","classes":[{"name":"p","a":1,"alpha":0.01,"mu":1},{"name":"smooth","a":1,"alpha":0.02,"beta":-0.001,"mu":1}],"weights":[1,2],"gradients":true}`,
			want:     http.StatusOK,
			gradBeta: []bool{false, false},
		},
		{
			name: "pascal step past beta/mu = 1",
			body: `{"n1":8,"n2":8,"units":"route","classes":[{"name":"p","a":1,"alpha":0.01,"mu":1},{"name":"peaky","a":1,"alpha":0.01,"beta":0.95,"mu":1}],"weights":[1,2],"gradients":true,"step":0.1}`,
			want: http.StatusUnprocessableEntity,
			msg:  "class 1 (peaky)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/revenue", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			if tc.want != http.StatusOK {
				if !strings.Contains(string(body), tc.msg) {
					t.Errorf("error %s does not name %q", body, tc.msg)
				}
				return
			}
			var rr RevenueResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				t.Fatal(err)
			}
			if len(rr.Classes) != len(tc.gradBeta) {
				t.Fatalf("%d classes, want %d", len(rr.Classes), len(tc.gradBeta))
			}
			for i, want := range tc.gradBeta {
				if got := rr.Classes[i].GradBetaMu != nil; got != want {
					t.Errorf("class %d: grad_beta_mu present %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestAdmissionEndpoint covers both policies.
func TestAdmissionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := SwitchSpec{N1: 8, N2: 8, Classes: []ClassSpec{
		{Name: "gold", A: 1, Alpha: 0.0024, Mu: 1},
		{Name: "bulk", A: 2, Alpha: 0.0012, Mu: 1},
	}}

	// Profitability: a weight far above any displacement accepts, a
	// (negative) weight below it rejects.
	var acc AdmissionResponse
	if code := postJSON(t, ts, "/v1/admission", AdmissionRequest{
		SwitchSpec: spec, Class: 0, Weights: []float64{100, 0.1},
	}, &acc); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !acc.Accept || acc.Policy != "profitability" || acc.ShadowCost == nil {
		t.Errorf("accept = %v policy = %q", acc.Accept, acc.Policy)
	}
	var rej AdmissionResponse
	if code := postJSON(t, ts, "/v1/admission", AdmissionRequest{
		SwitchSpec: spec, Class: 0, Weights: []float64{-100, 0.1},
	}, &rej); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if rej.Accept {
		t.Error("negative-revenue class accepted")
	}

	// Reservation: bulk is capped at occupancy 4; a state at the cap
	// rejects, an empty switch accepts, a full switch rejects even an
	// uncapped class.
	var ok AdmissionResponse
	if code := postJSON(t, ts, "/v1/admission", AdmissionRequest{
		SwitchSpec: spec, Class: 1, Policy: "reservation", Limits: []int{8, 4},
	}, &ok); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !ok.Accept || ok.Occupancy == nil || *ok.Occupancy != 0 {
		t.Errorf("empty-switch reservation: %+v", ok)
	}
	var capped AdmissionResponse
	if code := postJSON(t, ts, "/v1/admission", AdmissionRequest{
		SwitchSpec: spec, Class: 1, Policy: "reservation", Limits: []int{8, 4}, State: []int{3, 1},
	}, &capped); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if capped.Accept {
		t.Error("bulk admitted past its reservation limit")
	}
	var full AdmissionResponse
	if code := postJSON(t, ts, "/v1/admission", AdmissionRequest{
		SwitchSpec: spec, Class: 0, Policy: "reservation", Limits: []int{8, 8}, State: []int{8, 0},
	}, &full); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if full.Accept {
		t.Error("admitted into a full switch")
	}

	if code := postJSON(t, ts, "/v1/admission", AdmissionRequest{
		SwitchSpec: spec, Class: 5, Weights: []float64{1, 1},
	}, nil); code != http.StatusBadRequest {
		t.Errorf("out-of-range class: status %d, want 400", code)
	}
	// Infeasible states are 400s, including counts whose occupancy
	// k_r * a_r would overflow int and wrap to a small sum.
	wide := SwitchSpec{N1: 8, N2: 8, Units: "route", Classes: []ClassSpec{{A: 2, Alpha: 0.0024, Mu: 1}}}
	pair := SwitchSpec{N1: 8, N2: 8, Units: "route", Classes: []ClassSpec{{A: 1, Alpha: 0.0024, Mu: 1}, {A: 1, Alpha: 0.0024, Mu: 1}}}
	for _, req := range []AdmissionRequest{
		{SwitchSpec: spec, Class: 0, Policy: "reservation", Limits: []int{8, 4}, State: []int{9, 0}},
		{SwitchSpec: wide, Class: 0, Policy: "reservation", Limits: []int{8}, State: []int{4611686018427387904}},
		{SwitchSpec: pair, Class: 0, Policy: "reservation", Limits: []int{8, 8}, State: []int{9223372036854775807, 1}},
	} {
		if code := postJSON(t, ts, "/v1/admission", req, nil); code != http.StatusBadRequest {
			t.Errorf("infeasible state %v: status %d, want 400", req.State, code)
		}
	}
}

// TestSweepEndpoint checks the default diagonal sweep against fresh
// sub-size solves with the same per-route classes, plus explicit
// points and revenue weights.
func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := SwitchSpec{N1: 10, N2: 14, Units: "route", Classes: []ClassSpec{
		{Name: "p", A: 1, Alpha: 0.01, Mu: 1},
		{Name: "peaky", A: 2, Alpha: 0.002, Beta: 0.0005, Mu: 0.5},
	}}
	classes := []core.Class{
		{Name: "p", A: 1, Alpha: 0.01, Mu: 1},
		{Name: "peaky", A: 2, Alpha: 0.002, Beta: 0.0005, Mu: 0.5},
	}
	var resp SweepResponse
	if code := postJSON(t, ts, "/v1/sweep", SweepRequest{SwitchSpec: spec}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 10 {
		t.Fatalf("%d diagonal points, want 10", len(resp.Results))
	}
	for _, pt := range resp.Results {
		direct, err := core.Solve(core.Switch{N1: pt.N1, N2: pt.N2, Classes: classes})
		if err != nil {
			t.Fatal(err)
		}
		for r := range classes {
			if pt.Blocking[r] != direct.Blocking[r] {
				t.Errorf("point %dx%d class %d: %x != %x", pt.N1, pt.N2, r, pt.Blocking[r], direct.Blocking[r])
			}
		}
	}

	weights := []float64{1, 0.3}
	var wp SweepResponse
	req := SweepRequest{SwitchSpec: spec, Algorithm: "alg2",
		Points: []SweepPoint{{3, 7}, {10, 14}}, Weights: weights}
	if code := postJSON(t, ts, "/v1/sweep", req, &wp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if wp.Method != "algorithm2" || len(wp.Results) != 2 {
		t.Fatalf("method %q, %d results", wp.Method, len(wp.Results))
	}
	for _, pt := range wp.Results {
		direct, err := core.SolveMVA(core.Switch{N1: pt.N1, N2: pt.N2, Classes: classes})
		if err != nil {
			t.Fatal(err)
		}
		if pt.W == nil || *pt.W != direct.Revenue(weights) {
			t.Errorf("point %dx%d W mismatch", pt.N1, pt.N2)
		}
	}

	if code := postJSON(t, ts, "/v1/sweep", SweepRequest{SwitchSpec: spec,
		Points: []SweepPoint{{11, 1}}}, nil); code != http.StatusBadRequest {
		t.Errorf("out-of-lattice point: status %d, want 400", code)
	}
}

// validationCases are TestValidationErrors' rejected bodies (under
// MaxDim 64 and MaxSweepPoints 3); FuzzEndpoints seeds from them.
var validationCases = []struct {
	name, path, body string
	want             int
}{
	{"bad json", "/v1/blocking", "{", http.StatusBadRequest},
	{"unknown field", "/v1/blocking", `{"n1":4,"n2":4,"classes":[{"a":1,"alpha":0.1,"mu":1}],"bogus":1}`, http.StatusBadRequest},
	{"trailing data", "/v1/blocking", `{"n1":4,"n2":4,"classes":[{"a":1,"alpha":0.1,"mu":1}]} {"extra":1}`, http.StatusBadRequest},
	{"trailing brackets", "/v1/blocking", `{"n1":4,"n2":4,"classes":[{"a":1,"alpha":0.5,"mu":1}]}]]]garbage`, http.StatusBadRequest},
	{"trailing brace", "/v1/blocking", `{"n1":4,"n2":4,"classes":[{"a":1,"alpha":0.5,"mu":1}]}}`, http.StatusBadRequest},
	{"scenario trailing braces", "/v1/scenario", `{"discipline":"slotted","topology":{"n1":8,"n2":8},"params":{"load":0.5}}}}}junk`, http.StatusBadRequest},
	{"scenario trailing bracket", "/v1/scenario", `{"discipline":"slotted","topology":{"n1":8,"n2":8},"params":{"load":0.5}}]`, http.StatusBadRequest},
	{"nan alpha", "/v1/blocking", `{"n1":4,"n2":4,"classes":[{"a":1,"alpha":"NaN","mu":1}]}`, http.StatusBadRequest},
	{"zero dims", "/v1/blocking", `{"n1":0,"n2":4,"classes":[{"a":1,"alpha":0.1,"mu":1}]}`, http.StatusBadRequest},
	{"dim above cap", "/v1/blocking", `{"n1":65,"n2":4,"classes":[{"a":1,"alpha":0.1,"mu":1}]}`, http.StatusBadRequest},
	{"no classes", "/v1/blocking", `{"n1":4,"n2":4,"classes":[]}`, http.StatusBadRequest},
	{"bad units", "/v1/blocking", `{"n1":4,"n2":4,"units":"furlongs","classes":[{"a":1,"alpha":0.1,"mu":1}]}`, http.StatusBadRequest},
	{"bad algorithm", "/v1/blocking", `{"n1":4,"n2":4,"algorithm":"alg3","classes":[{"a":1,"alpha":0.1,"mu":1}]}`, http.StatusBadRequest},
	{"zero mu", "/v1/blocking", `{"n1":4,"n2":4,"classes":[{"a":1,"alpha":0.1,"mu":0}]}`, http.StatusUnprocessableEntity},
	{"pascal divergence", "/v1/blocking", `{"n1":4,"n2":4,"units":"route","classes":[{"a":1,"alpha":0.1,"beta":2,"mu":1}]}`, http.StatusUnprocessableEntity},
	{"sweep points above cap", "/v1/sweep", `{"n1":8,"n2":8,"classes":[{"a":1,"alpha":0.001,"mu":1}]}`, http.StatusBadRequest},
	{"default sweep points far above cap", "/v1/sweep", `{"n1":1000000,"n2":1000000,"units":"route","dispatch":"asymptotic","classes":[{"a":1,"alpha":0.001,"mu":1}]}`, http.StatusBadRequest},
}

// TestValidationErrors sweeps the malformed-input matrix.
func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDim: 64, MaxBodyBytes: 512, MaxSweepPoints: 3})
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	for _, tc := range validationCases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := post(tc.path, tc.body)
		runtime.ReadMemStats(&after)
		if got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
		// Rejecting a small body must not build anything sized by
		// what the body asks for (a million default sweep points).
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: request allocated %d bytes, want < 1 MiB", tc.name, alloc)
		}
	}

	// Body too large: 413 via MaxBytesReader.
	big := `{"n1":4,"n2":4,"classes":[{"a":1,"alpha":0.1,"mu":1,"name":"` + strings.Repeat("x", 600) + `"}]}`
	if got := post("/v1/blocking", big); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", got)
	}

	// Wrong methods 405, unknown path 404.
	resp, err := http.Get(ts.URL + "/v1/blocking")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/blocking: %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/nonsense")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/nonsense: %d, want 404", resp.StatusCode)
	}
}

// TestHealthzAndMetrics exercises the operational endpoints end to
// end, including the error counter and the latency histogram.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}

	if code := postJSON(t, ts, "/v1/blocking", BlockingRequest{SwitchSpec: paperSpec(8)}, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	r2, err := http.Post(ts.URL+"/v1/blocking", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	b := snap.Endpoints["/v1/blocking"]
	if b.Requests != 2 || b.Errors != 1 {
		t.Errorf("blocking endpoint: %d requests %d errors, want 2 and 1", b.Requests, b.Errors)
	}
	h := b.Latency
	if total := h.Le100us + h.Le1ms + h.Le10ms + h.Le100ms + h.Le1s + h.Le10s + h.Over10s; total != 2 {
		t.Errorf("histogram holds %d observations, want 2", total)
	}
	if snap.Endpoints["/healthz"].Requests != 1 {
		t.Errorf("healthz requests = %d", snap.Endpoints["/healthz"].Requests)
	}
	if snap.Cache.Misses != 1 {
		t.Errorf("cache misses = %d", snap.Cache.Misses)
	}
}

// TestSemaphoreBoundsFillsOnly pins the admission rule: the solve
// semaphore bounds lattice fills and exact-tier gradient re-solves, so
// with every slot taken a cache hit that only reads the lattice is
// still served, while a miss or a hit that would re-solve times out
// into a 503.
func TestSemaphoreBoundsFillsOnly(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, RequestTimeout: 200 * time.Millisecond})
	pascal := SwitchSpec{N1: 8, N2: 8, Classes: []ClassSpec{
		{Name: "smooth", A: 1, Alpha: 0.0024, Mu: 1},
		{Name: "peaky", A: 2, Alpha: 0.002, Beta: 0.0005, Mu: 0.5},
	}}
	weights := []float64{1, 2}
	for _, prime := range []struct {
		path string
		body any
	}{
		{"/v1/blocking", BlockingRequest{SwitchSpec: paperSpec(8)}},
		{"/v1/revenue", RevenueRequest{SwitchSpec: pascal, Weights: weights}},
	} {
		if code := postJSON(t, ts, prime.path, prime.body, nil); code != http.StatusOK {
			t.Fatalf("priming %s: status %d", prime.path, code)
		}
	}
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	for _, tc := range []struct {
		name string
		path string
		body any
		want int
	}{
		{"cache hit", "/v1/blocking", BlockingRequest{SwitchSpec: paperSpec(8)}, http.StatusOK},
		{"cache miss", "/v1/blocking", BlockingRequest{SwitchSpec: paperSpec(10)}, http.StatusServiceUnavailable},
		{"revenue hit", "/v1/revenue", RevenueRequest{SwitchSpec: pascal, Weights: weights}, http.StatusOK},
		{"revenue hit, Pascal gradients", "/v1/revenue",
			RevenueRequest{SwitchSpec: pascal, Weights: weights, Gradients: true}, http.StatusServiceUnavailable},
		{"revenue hit, all-Poisson gradients", "/v1/revenue",
			RevenueRequest{SwitchSpec: paperSpec(8), Weights: []float64{1}, Gradients: true}, http.StatusOK},
	} {
		if code := postJSON(t, ts, tc.path, tc.body, nil); code != tc.want {
			t.Errorf("%s with the semaphore full: status %d, want %d", tc.name, code, tc.want)
		}
	}
}

// TestPanickingFillAnswers500 pins that a fill which panics neither
// poisons its key nor leaves its waiters to time out: a request
// sharing the flight gets a 500, and the next request fills afresh.
func TestPanickingFillAnswers500(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 5 * time.Second})
	key := cacheKey(alg1, paperSwitch(8))
	entered, boom := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		s.cache.get(context.Background(), key, func() (*solverEntry, error) {
			close(entered)
			<-boom
			panic("fill failed on purpose")
		})
	}()
	<-entered
	code := make(chan int, 1)
	buf, _ := json.Marshal(BlockingRequest{SwitchSpec: paperSpec(8)})
	go func() {
		resp, err := http.Post(ts.URL+"/v1/blocking", "application/json", bytes.NewReader(buf))
		if err != nil {
			code <- 0
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	for s.metrics.cache.shared.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(boom)
	if p := <-leader; p != "fill failed on purpose" {
		t.Errorf("leader recovered %v, want the fill's panic", p)
	}
	if c := <-code; c != http.StatusInternalServerError {
		t.Errorf("waiter on the panicked fill: status %d, want 500", c)
	}
	var br BlockingResponse
	if c := postJSON(t, ts, "/v1/blocking", BlockingRequest{SwitchSpec: paperSpec(8)}, &br); c != http.StatusOK || br.Cached {
		t.Errorf("retry after the panic: status %d, cached %v; want a fresh 200", c, br.Cached)
	}
}

// TestLifecycle runs the daemon path over real TCP: Start on port 0,
// Run, healthz and a solve over the wire, pprof on the debug mux,
// then a context cancel must drain cleanly.
func TestLifecycle(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	base := "http://" + s.Addr()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
	buf, _ := json.Marshal(BlockingRequest{SwitchSpec: paperSpec(8)})
	resp, err = http.Post(base+"/v1/blocking", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("blocking %d", resp.StatusCode)
	}

	dresp, err := http.Get("http://" + s.DebugAddr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline %d", dresp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
}

// TestDerivedRateProbes: classes with finite inputs whose derived
// rates the solvers cannot carry — rho overflowing to +Inf, a_r rho_r
// underflowing to zero — are 422s with an {"error": ...} document on
// every exact-tier endpoint and for both algorithms, not a 500 from a
// panicking fill or a 200 with an empty body from unencodable NaNs.
func TestDerivedRateProbes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	classes := map[string]string{
		"rho overflows":   `{"a":1,"alpha":1e300,"mu":1e-300}`,
		"rho underflows":  `{"a":1,"alpha":1e-300,"mu":1e300}`,
		"slope overflows": `{"a":1,"alpha":1,"beta":1e300,"mu":1e-300}`,
	}
	requests := []struct{ path, extra string }{
		{"/v1/blocking", ``},
		{"/v1/blocking", `"algorithm":"alg2",`},
		{"/v1/revenue", `"weights":[1,2],`},
		{"/v1/revenue", `"weights":[1,2],"gradients":true,`},
		{"/v1/admission", `"class":1,"weights":[1,2],`},
		{"/v1/admission", `"class":1,"policy":"reservation","limits":[4,4],"state":[0,0],`},
		{"/v1/sweep", `"points":[{"n1":2,"n2":3}],`},
		{"/v1/sweep", `"algorithm":"alg2","points":[{"n1":2,"n2":3}],`},
		{"/v1/grid", `"points":[{"n1":3}],`},
	}
	for name, class := range classes {
		for _, req := range requests {
			body := `{` + req.extra + `"n1":4,"n2":4,"units":"route","classes":[{"a":1,"alpha":0.1,"mu":1},` + class + `]}`
			resp, err := http.Post(ts.URL+req.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]string
			if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(data, &doc) != nil || doc["error"] == "" {
				t.Errorf("%s %s %s: status %d body %q, want 422 with an error document",
					name, req.path, req.extra, resp.StatusCode, data)
			}
		}
	}
}

// TestWriteJSONEncodeFailure: a response value JSON cannot encode
// reaches the client as a counted 500 with an error document, never
// as the handler's 2xx with a truncated body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.instrument("/v1/blocking", func(w http.ResponseWriter, _ *http.Request) error {
		s.writeJSON(w, http.StatusOK, map[string]float64{"blocking": math.NaN()})
		return nil
	})
	before := s.metrics.Snapshot().Endpoints["/v1/blocking"].Errors
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/blocking", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rec.Code)
	}
	var doc map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc["error"] != "internal error" {
		t.Errorf("body %q, want the internal error document", rec.Body.String())
	}
	if got := s.metrics.Snapshot().Endpoints["/v1/blocking"].Errors; got != before+1 {
		t.Errorf("endpoint errors %d, want %d", got, before+1)
	}
	// An encodable document still goes out as is, with its status.
	rec = httptest.NewRecorder()
	s.writeJSON(rec, http.StatusAccepted, map[string]float64{"blocking": 0.25})
	if rec.Code != http.StatusAccepted || rec.Body.String() != "{\"blocking\":0.25}\n" {
		t.Errorf("encodable document: status %d body %q", rec.Code, rec.Body.String())
	}
}

// TestCacheKeyGolden pins cacheKey byte for byte: ring placement in a
// cluster depends on the exact hex format, so a key must never change
// across releases. It also pins the key's cost: one allocation, the
// returned string (the key was 4 allocations for one class and 8 for
// two when built from per-field strings).
func TestCacheKeyGolden(t *testing.T) {
	cases := []struct {
		alg  string
		sw   core.Switch
		want string
	}{
		{alg1, core.Switch{N1: 16, N2: 16, Classes: []core.Class{{A: 1, Alpha: 0.0024, Mu: 1}}},
			"alg1|16x16|1:0x1.3a92a30553261p-09:0x0p+00:0x1p+00"},
		{alg2, core.Switch{N1: 128, N2: 96, Classes: []core.Class{
			{A: 1, Alpha: 0.0012, Mu: 1},
			{A: 2, Alpha: 0.0006, Beta: 0.0003, Mu: 0.5},
		}}, "alg2|128x96|1:0x1.3a92a30553261p-10:0x0p+00:0x1p+00|2:0x1.3a92a30553261p-11:0x1.3a92a30553261p-12:0x1p-01"},
		{alg1, core.Switch{N1: 1024, N2: 7, Classes: []core.Class{
			{A: 3, Alpha: 1e-300, Beta: -1e-301, Mu: 1e300},
			{A: 1, Alpha: 0.1, Mu: 3},
		}}, "alg1|1024x7|3:0x1.56e1fc2f8f359p-997:-0x1.124e63593f5e1p-1000:0x1.7e43c8800759cp+996|1:0x1.999999999999ap-04:0x0p+00:0x1.8p+01"},
	}
	for _, tc := range cases {
		if got := cacheKey(tc.alg, tc.sw); got != tc.want {
			t.Errorf("cacheKey = %q, want %q", got, tc.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = cacheKey(tc.alg, tc.sw) }); allocs != 1 {
			t.Errorf("cacheKey(%s, %dx%d) makes %v allocations, want 1", tc.alg, tc.sw.N1, tc.sw.N2, allocs)
		}
	}
}
