package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xbar/internal/scenario"
)

// scenarioDoc builds the canonical valid test spec: the slotted
// crossbar at 8x8, load 0.5, analytic only.
func scenarioDoc() map[string]any {
	return map[string]any{
		"discipline": "slotted",
		"topology":   map[string]any{"n1": 8, "n2": 8},
		"params":     map[string]any{"load": 0.5},
	}
}

type scenarioErrBody struct {
	Error  string `json:"error"`
	Fields []struct {
		Field string `json:"field"`
		Msg   string `json:"error"`
	} `json:"fields"`
}

func TestScenarioEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var resp ScenarioResponse
	if code := postJSON(t, ts, "/v1/scenario", scenarioDoc(), &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Discipline != "slotted" || resp.Cached {
		t.Errorf("first response %+v, want uncached slotted", resp)
	}
	names := map[string]bool{}
	for _, m := range resp.Measures {
		names[m.Name] = true
	}
	if !names["throughput"] || !names["acceptance"] {
		t.Errorf("measures %+v, want throughput and acceptance", resp.Measures)
	}

	// The repeat is a cache hit and bit-identical.
	var again ScenarioResponse
	if code := postJSON(t, ts, "/v1/scenario", scenarioDoc(), &again); code != http.StatusOK {
		t.Fatalf("repeat status %d", code)
	}
	if !again.Cached {
		t.Errorf("repeat not served from cache")
	}
	for i := range resp.Measures {
		if again.Measures[i] != resp.Measures[i] {
			t.Errorf("measure %d drifted: %+v vs %+v", i, resp.Measures[i], again.Measures[i])
		}
	}

	snap := s.Metrics().Snapshot()
	if snap.ScenarioCache.Misses != 1 || snap.ScenarioCache.Hits != 1 {
		t.Errorf("scenario cache counters %+v, want 1 miss + 1 hit", snap.ScenarioCache)
	}
	if s.scCache.len() != 1 {
		t.Errorf("cache holds %d entries, want 1", s.scCache.len())
	}
	if ep, ok := snap.Endpoints["/v1/scenario"]; !ok || ep.Requests != 2 {
		t.Errorf("endpoint metrics %+v, want 2 requests", ep)
	}
}

// TestScenarioMeasureFilter pins that the filter selects and orders
// measures, shares the cache entry with the unfiltered request, and
// reports unknown names as indexed 400 field errors.
func TestScenarioMeasureFilter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := scenarioDoc()
	doc["measures"] = []string{"acceptance", "throughput"}
	var resp ScenarioResponse
	if code := postJSON(t, ts, "/v1/scenario", doc, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Measures) != 2 || resp.Measures[0].Name != "acceptance" || resp.Measures[1].Name != "throughput" {
		t.Errorf("filtered measures %+v", resp.Measures)
	}

	// A different filter of the same scenario is a cache hit: the key
	// excludes the measure selection.
	doc["measures"] = []string{"throughput"}
	var narrow ScenarioResponse
	if code := postJSON(t, ts, "/v1/scenario", doc, &narrow); code != http.StatusOK {
		t.Fatalf("narrow filter status %d", code)
	}
	if !narrow.Cached || len(narrow.Measures) != 1 {
		t.Errorf("narrow filter response %+v, want cached single measure", narrow)
	}

	doc["measures"] = []string{"throughput", "nope"}
	var eb scenarioErrBody
	if code := postJSON(t, ts, "/v1/scenario", doc, &eb); code != http.StatusBadRequest {
		t.Fatalf("unknown measure status %d", code)
	}
	if len(eb.Fields) != 1 || eb.Fields[0].Field != "measures[1]" {
		t.Errorf("unknown measure located at %+v, want measures[1]", eb.Fields)
	}
}

// TestScenarioErrorContract pins the documented status mapping:
// malformed specs are 400 with indexed field errors, oversized ones
// 413, unknown disciplines 422.
func TestScenarioErrorContract(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512, MaxDim: 64})

	t.Run("unknown discipline 422", func(t *testing.T) {
		doc := scenarioDoc()
		doc["discipline"] = "quantum"
		var eb scenarioErrBody
		if code := postJSON(t, ts, "/v1/scenario", doc, &eb); code != http.StatusUnprocessableEntity {
			t.Fatalf("status %d", code)
		}
		if !strings.Contains(eb.Error, "slotted") {
			t.Errorf("error %q should list the known disciplines", eb.Error)
		}
	})

	t.Run("oversized topology 413", func(t *testing.T) {
		doc := scenarioDoc()
		doc["topology"] = map[string]any{"n1": 128, "n2": 128}
		var eb scenarioErrBody
		if code := postJSON(t, ts, "/v1/scenario", doc, &eb); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d", code)
		}
	})

	t.Run("malformed spec 400 with fields", func(t *testing.T) {
		doc := scenarioDoc()
		doc["topology"] = map[string]any{"n1": 8}
		doc["params"] = map[string]any{"load": 1.5, "lambda": 2}
		var eb scenarioErrBody
		if code := postJSON(t, ts, "/v1/scenario", doc, &eb); code != http.StatusBadRequest {
			t.Fatalf("status %d", code)
		}
		want := map[string]bool{"topology.n2": false, "params.load": false, "params.lambda": false}
		for _, f := range eb.Fields {
			if _, ok := want[f.Field]; ok {
				want[f.Field] = true
			}
			if f.Msg == "" {
				t.Errorf("field %q has an empty diagnostic", f.Field)
			}
		}
		for field, seen := range want {
			if !seen {
				t.Errorf("missing field error for %q in %+v", field, eb.Fields)
			}
		}
	})

	t.Run("invalid JSON 400", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/scenario", "application/json", strings.NewReader(`{"discipline":`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})

	t.Run("trailing data 400", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/scenario", "application/json", strings.NewReader(`{"discipline": "slotted"} extra`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})

	t.Run("oversized body 413", func(t *testing.T) {
		body := `{"discipline": "slotted", "topology": {"n1": 8, "n2": 8}, "params": {"load": 0.5}` +
			strings.Repeat(" ", 600) + `}`
		resp, err := http.Post(ts.URL+"/v1/scenario", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
}

// TestScenarioSimulation runs one event-driven discipline end to end
// through the endpoint: the overflow model requires a simulation block
// and returns CI-carrying measures.
func TestScenarioSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("event simulation in -short")
	}
	_, ts := newTestServer(t, Config{})
	doc := map[string]any{
		"discipline": "overflow",
		"topology":   map[string]any{"n1": 6},
		"params":     map[string]any{"lambda": 20, "mu": 1, "secondary_n": 4},
		"sim":        map[string]any{"seed": 7, "warmup": 20, "horizon": 200},
	}
	var resp ScenarioResponse
	if code := postJSON(t, ts, "/v1/scenario", doc, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	found := false
	for _, m := range resp.Measures {
		if m.Name == "sim_primary_blocking" {
			found = true
			if m.HalfWidth <= 0 {
				t.Errorf("sim_primary_blocking carries no confidence half-width: %+v", m)
			}
		}
	}
	if !found {
		t.Errorf("no sim_primary_blocking in %+v", resp.Measures)
	}
}

func TestScenarioConfigValidate(t *testing.T) {
	if _, err := New(Config{ScenarioCacheSize: -1}); err == nil {
		t.Error("negative ScenarioCacheSize accepted")
	}
}

// testCache is a cache[V] instantiated as the scenario path's, with a
// release hook that counts its calls per value.
type testCache struct {
	*cache[*scenario.Result]
	stats    *cacheStats
	hookMu   sync.Mutex
	disposed map[string]int // guarded by hookMu
}

func newTestCache(maxEntries int) *testCache {
	tc := &testCache{stats: &cacheStats{}, disposed: map[string]int{}}
	tc.cache = newCache(maxEntries, func(r *scenario.Result) {
		tc.hookMu.Lock()
		tc.disposed[r.Discipline]++
		tc.hookMu.Unlock()
	}, tc.stats)
	return tc
}

// disposals reports how many times the hook ran for the value named v.
func (tc *testCache) disposals(v string) int {
	tc.hookMu.Lock()
	defer tc.hookMu.Unlock()
	return tc.disposed[v]
}

// mustGet runs a get that must succeed and returns its handle.
func (tc *testCache) mustGet(t *testing.T, key string, wantCached bool) *handle[*scenario.Result] {
	t.Helper()
	h, cached, err := tc.get(context.Background(), key, func() (*scenario.Result, error) {
		return &scenario.Result{Discipline: key}, nil
	})
	if err != nil || cached != wantCached || h.v.Discipline != key {
		t.Fatalf("get(%q) = (%v, cached %v, err %v), want cached %v", key, h, cached, err, wantCached)
	}
	return h
}

// blockedFill starts a get of key whose fill waits for release after
// entering; it returns once the fill has entered. The get's handle (or
// error) arrives on the returned channel; fill's result is what the
// flight completes with, and it may panic.
func (tc *testCache) blockedFill(key string, fill func() (*scenario.Result, error)) (release chan struct{}, done chan fillOutcome) {
	entered := make(chan struct{})
	release = make(chan struct{})
	done = make(chan fillOutcome, 1)
	go func() {
		var o fillOutcome
		defer func() {
			o.panicked = recover()
			done <- o
		}()
		o.h, o.cached, o.err = tc.get(context.Background(), key, func() (*scenario.Result, error) {
			close(entered)
			<-release
			return fill()
		})
	}()
	<-entered
	return release, done
}

type fillOutcome struct {
	h        *handle[*scenario.Result]
	cached   bool
	err      error
	panicked any
}

// waitShared blocks until n gets have attached to in-flight fills.
func (tc *testCache) waitShared(n int64) {
	for tc.stats.shared.Load() < n {
		time.Sleep(time.Millisecond)
	}
}

// quiescent checks the cache holds no flight and no reference.
func (tc *testCache) quiescent(t *testing.T) {
	t.Helper()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for k, h := range tc.items {
		if h.el == nil {
			t.Errorf("key %q still has a flight", k)
		}
		if h.refs != 0 {
			t.Errorf("key %q holds %d references", k, h.refs)
		}
	}
	if len(tc.items) != tc.ll.Len() {
		t.Errorf("%d keys indexed, %d resident", len(tc.items), tc.ll.Len())
	}
}

// TestScenarioCacheUnit drives cache[V], as the scenario path
// instantiates it, through the lifecycle branches the endpoint tests
// cannot reach deterministically: hits and misses, SIEVE eviction,
// single-flight sharing, fill errors and panics, waiters abandoning a
// flight, and the release hook of a value evicted while referenced.
// Every case must end with no flight and no reference outstanding.
func TestScenarioCacheUnit(t *testing.T) {
	t.Parallel()
	res := func(name string) func() (*scenario.Result, error) {
		return func() (*scenario.Result, error) { return &scenario.Result{Discipline: name}, nil }
	}
	cases := []struct {
		name string
		max  int
		run  func(t *testing.T, tc *testCache)
	}{
		{"hit and miss", 4, func(t *testing.T, tc *testCache) {
			h := tc.mustGet(t, "a", false)
			tc.release(h)
			h2 := tc.mustGet(t, "a", true)
			if h2 != h {
				t.Error("hit returned a different handle")
			}
			tc.release(h2)
			if hits, misses := tc.stats.hits.Load(), tc.stats.misses.Load(); hits != 1 || misses != 1 {
				t.Errorf("hits %d misses %d, want 1 and 1", hits, misses)
			}
			if n := tc.len(); n != 1 {
				t.Errorf("len = %d, want 1", n)
			}
		}},
		{"eviction", 2, func(t *testing.T, tc *testCache) {
			for _, k := range []string{"a", "b", "c"} {
				tc.release(tc.mustGet(t, k, false))
			}
			if n := tc.len(); n != 2 {
				t.Errorf("len = %d after eviction, want 2", n)
			}
			if got := tc.stats.evictions.Load(); got != 1 {
				t.Errorf("evictions = %d, want 1", got)
			}
			// "a" was the hand's first unvisited value, unreferenced, so
			// the hook ran at once.
			if got := tc.disposals("a"); got != 1 {
				t.Errorf("hook ran %d times for the evicted value, want 1", got)
			}
			tc.release(tc.mustGet(t, "b", true))
			tc.release(tc.mustGet(t, "a", false))
		}},
		{"single flight", 4, func(t *testing.T, tc *testCache) {
			release, leader := tc.blockedFill("k", res("k"))
			waiter := make(chan fillOutcome, 1)
			go func() {
				var o fillOutcome
				o.h, o.cached, o.err = tc.get(context.Background(), "k", func() (*scenario.Result, error) {
					t.Error("second fill ran; want shared flight")
					return nil, nil
				})
				waiter <- o
			}()
			tc.waitShared(1)
			close(release)
			l, w := <-leader, <-waiter
			if l.err != nil || l.cached || w.err != nil || !w.cached || w.h != l.h {
				t.Errorf("leader (cached %v, err %v), waiter (cached %v, err %v, same handle %v)", l.cached, l.err, w.cached, w.err, w.h == l.h)
			}
			tc.release(l.h)
			tc.release(w.h)
			if hits, misses := tc.stats.hits.Load(), tc.stats.misses.Load(); misses != 1 || hits != 0 {
				t.Errorf("hits %d misses %d, want 0 and 1", hits, misses)
			}
		}},
		{"errors shared but not cached", 4, func(t *testing.T, tc *testCache) {
			boom := errors.New("unevaluable")
			release, leader := tc.blockedFill("k", func() (*scenario.Result, error) { return nil, boom })
			waiter := make(chan error, 1)
			go func() {
				_, _, err := tc.get(context.Background(), "k", nil)
				waiter <- err
			}()
			tc.waitShared(1)
			close(release)
			if l := <-leader; !errors.Is(l.err, boom) || l.h != nil {
				t.Errorf("leader got (%v, %v), want %v", l.h, l.err, boom)
			}
			if err := <-waiter; !errors.Is(err, boom) {
				t.Errorf("waiter got %v, want %v", err, boom)
			}
			if n := tc.len(); n != 0 {
				t.Fatalf("error cached: len = %d", n)
			}
			// The next identical request fills afresh.
			tc.release(tc.mustGet(t, "k", false))
			if got := tc.stats.misses.Load(); got != 2 {
				t.Errorf("misses = %d, want 2", got)
			}
		}},
		{"waiter context canceled", 4, func(t *testing.T, tc *testCache) {
			// The waiter abandons before completion: its reference is
			// dropped, so only the leader's remains to release.
			release, leader := tc.blockedFill("k", res("k"))
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if h, cached, err := tc.get(ctx, "k", nil); !errors.Is(err, context.Canceled) || cached || h != nil {
				t.Errorf("canceled waiter got (%v, cached %v, err %v), want context.Canceled", h, cached, err)
			}
			close(release)
			l := <-leader
			if l.err != nil {
				t.Fatal(l.err)
			}
			tc.release(l.h)
		}},
		{"waiter abandons after completion", 1, func(t *testing.T, tc *testCache) {
			// The waiter is granted its reference by the shared fill,
			// then gives up (as a handler does when its read fails).
			// Its release is the last one of the evicted value.
			release, leader := tc.blockedFill("k", res("k"))
			waiter := make(chan fillOutcome, 1)
			go func() {
				var o fillOutcome
				o.h, o.cached, o.err = tc.get(context.Background(), "k", nil)
				waiter <- o
			}()
			tc.waitShared(1)
			close(release)
			l, w := <-leader, <-waiter
			if l.err != nil || w.err != nil {
				t.Fatalf("leader %v, waiter %v", l.err, w.err)
			}
			tc.release(l.h)
			// The waiter's join marked "k" visited: the hand clears the
			// bit and evicts "other" instead, then "k" on the next insert.
			tc.release(tc.mustGet(t, "other", false))
			tc.release(tc.mustGet(t, "other2", false)) // evicts "k"
			if got := tc.disposals("k"); got != 0 {
				t.Errorf("hook ran %d times before the waiter released, want 0", got)
			}
			tc.release(w.h)
			if got := tc.disposals("k"); got != 1 {
				t.Errorf("hook ran %d times after the waiter released, want 1", got)
			}
		}},
		{"waiter abandons as the fill completes", 2, func(t *testing.T, tc *testCache) {
			// The fill cancels its waiter and completes at once, so the
			// waiter's release races the completion; either order must
			// leave no reference and dispose of each evicted value once.
			const rounds = 50
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("k%d", i)
				ctx, cancel := context.WithCancel(context.Background())
				waiter := make(chan fillOutcome, 1)
				release, leader := tc.blockedFill(key, func() (*scenario.Result, error) {
					cancel()
					return &scenario.Result{Discipline: key}, nil
				})
				go func() {
					var o fillOutcome
					o.h, o.cached, o.err = tc.get(ctx, key, nil)
					waiter <- o
				}()
				tc.waitShared(int64(i + 1))
				close(release)
				l, w := <-leader, <-waiter
				if w.err == nil {
					tc.release(w.h)
				} else if !errors.Is(w.err, context.Canceled) {
					t.Errorf("round %d: waiter got %v", i, w.err)
				}
				tc.release(l.h)
			}
			// Every evicted value was disposed of exactly once.
			for i := 0; i < rounds-2; i++ {
				if got := tc.disposals(fmt.Sprintf("k%d", i)); got != 1 {
					t.Errorf("k%d: hook ran %d times, want 1", i, got)
				}
			}
		}},
		{"evicted while referenced", 1, func(t *testing.T, tc *testCache) {
			h1 := tc.mustGet(t, "a", false)
			h2 := tc.mustGet(t, "a", true) // a hit: marks "a" visited
			// "a" survives one pass of the hand, which evicts "b"; the
			// next insert evicts "a" while it is referenced twice.
			tc.release(tc.mustGet(t, "b", false))
			tc.release(tc.mustGet(t, "c", false))
			if got := tc.stats.evictions.Load(); got != 2 {
				t.Errorf("evictions = %d, want 2", got)
			}
			if got := tc.disposals("a"); got != 0 {
				t.Errorf("hook ran %d times while referenced, want 0", got)
			}
			if h1.v.Discipline != "a" {
				t.Error("value cleared while referenced")
			}
			tc.release(h1)
			if got := tc.disposals("a"); got != 0 {
				t.Errorf("hook ran %d times with one reference left, want 0", got)
			}
			tc.release(h2)
			if got := tc.disposals("a"); got != 1 {
				t.Errorf("hook ran %d times after the last release, want 1", got)
			}
			tc.release(tc.mustGet(t, "a", false))
		}},
		{"panicking fill", 4, func(t *testing.T, tc *testCache) {
			release, leader := tc.blockedFill("k", func() (*scenario.Result, error) { panic("boom") })
			waiter := make(chan error, 1)
			go func() {
				_, _, err := tc.get(context.Background(), "k", nil)
				waiter <- err
			}()
			tc.waitShared(1)
			close(release)
			if l := <-leader; l.panicked != "boom" {
				t.Errorf("leader recovered %v, want the fill's panic", l.panicked)
			}
			if err := <-waiter; !errors.Is(err, errFillPanicked) {
				t.Errorf("waiter got %v, want errFillPanicked", err)
			}
			if n := tc.len(); n != 0 {
				t.Errorf("len = %d after the panic, want 0", n)
			}
			tc.quiescent(t)
			// The key is not poisoned: the next get fills again.
			tc.release(tc.mustGet(t, "k", false))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			tc := newTestCache(c.max)
			c.run(t, tc)
			tc.quiescent(t)
		})
	}
}

// TestScenarioRoundingWindow: a retrial simulation on warmup 10,
// horizon 37, a window whose default 20 batch boundaries round back
// into the batch before them and used to stall the simulator, answers
// 200 within a deadline, and its repeat is a bit-identical cache hit.
func TestScenarioRoundingWindow(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	const doc = `{"discipline":"retrial","topology":{"n1":4,"n2":4},"params":{"lambda":2,"mu":1},"sim":{"seed":1,"warmup":10,"horizon":37}}`
	post := func() ScenarioResponse {
		t.Helper()
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenario", strings.NewReader(doc)))
			done <- rec
		}()
		select {
		case rec := <-done:
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
			var resp ScenarioResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			return resp
		case <-time.After(10 * time.Second):
			t.Fatal("no response within 10s")
		}
		return ScenarioResponse{}
	}
	first := post()
	again := post()
	if first.Cached || !again.Cached {
		t.Errorf("cached flags %v then %v, want a miss then a hit", first.Cached, again.Cached)
	}
	if len(first.Measures) == 0 || len(again.Measures) != len(first.Measures) {
		t.Fatalf("measures %d then %d", len(first.Measures), len(again.Measures))
	}
	for i, m := range first.Measures {
		r := again.Measures[i]
		if m.Name != r.Name || math.Float64bits(m.Value) != math.Float64bits(r.Value) || math.Float64bits(m.HalfWidth) != math.Float64bits(r.HalfWidth) {
			t.Errorf("measure %d: %+v then %+v", i, m, r)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("measure %s = %v, want finite", m.Name, m.Value)
		}
	}
}

// retrialDoc is a short retrial simulation on an n1 x n2 crossbar at
// total fresh rate lambda.
func retrialDoc(n1, n2 int, lambda float64) map[string]any {
	return map[string]any{
		"discipline": "retrial",
		"topology":   map[string]any{"n1": n1, "n2": n2},
		"params":     map[string]any{"lambda": lambda, "mu": 1, "retry_rate": 3, "max_attempts": 2},
		"sim":        map[string]any{"seed": 17, "warmup": 2, "horizon": 20},
	}
}

// postScenario posts doc to /v1/scenario and requires a 200.
func postScenario(t *testing.T, ts *httptest.Server, doc map[string]any) ScenarioResponse {
	t.Helper()
	var resp ScenarioResponse
	if code := postJSON(t, ts, "/v1/scenario", doc, &resp); code != http.StatusOK {
		t.Fatalf("%v: status %d", doc["discipline"], code)
	}
	return resp
}

func measureOf(r ScenarioResponse, name string) (ScenarioMeasure, bool) {
	for _, m := range r.Measures {
		if m.Name == name {
			return m, true
		}
	}
	return ScenarioMeasure{}, false
}

// TestRetrialAnchorMatchesBlocking: retrial's cleared_blocking is the
// paper's blocked-calls-cleared blocking of the same switch, so it
// equals /v1/blocking's class-0 blocking for one Poisson class at
// per-route alpha = lambda/(N1 N2), bit for bit.
func TestRetrialAnchorMatchesBlocking(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, sz := range []struct{ n1, n2 int }{{4, 4}, {96, 80}} {
		lambda := 0.75 * float64(min(sz.n1, sz.n2))
		cleared, ok := measureOf(postScenario(t, ts, retrialDoc(sz.n1, sz.n2, lambda)), "cleared_blocking")
		if !ok {
			t.Fatalf("%dx%d: no cleared_blocking", sz.n1, sz.n2)
		}
		var bl BlockingResponse
		spec := SwitchSpec{N1: sz.n1, N2: sz.n2, Units: "route",
			Classes: []ClassSpec{{A: 1, Alpha: lambda / float64(sz.n1*sz.n2), Mu: 1}}}
		if code := postJSON(t, ts, "/v1/blocking", spec, &bl); code != http.StatusOK {
			t.Fatalf("%dx%d: /v1/blocking status %d", sz.n1, sz.n2, code)
		}
		if got, want := cleared.Value, bl.Classes[0].Blocking; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%dx%d: cleared_blocking %v, /v1/blocking %v", sz.n1, sz.n2, got, want)
		}
	}
}

// TestScenarioSolvesRetainNoLattice: a scenario's product-form solves
// keep no lattice once the request is answered. After a retrial miss
// at 512x512 and an overflow miss with a 512-wide secondary, the live
// heap grows by far less than one 513x513 Algorithm 1 lattice
// (4.2 MB); the cached scenario results are a few hundred bytes.
func TestScenarioSolvesRetainNoLattice(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	live := func() uint64 {
		// Two cycles: the fill scratch's sync.Pool frees an idle
		// buffer on the second.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	retrial := postScenario(t, ts, retrialDoc(512, 512, 40))
	overflow := postScenario(t, ts, map[string]any{
		"discipline": "overflow",
		"topology":   map[string]any{"n1": 6},
		"params":     map[string]any{"lambda": 8, "mu": 1, "secondary_n": 512},
		"sim":        map[string]any{"seed": 16, "warmup": 2, "horizon": 100},
	})
	after := live()
	if _, ok := measureOf(retrial, "cleared_blocking"); !ok || retrial.Cached {
		t.Fatalf("retrial: %+v, want an uncached product-form solve", retrial)
	}
	if _, ok := measureOf(overflow, "bpp_secondary_blocking"); !ok || overflow.Cached {
		t.Fatalf("overflow: %+v, want an uncached product-form solve", overflow)
	}
	const bound = 1 << 20
	if grown := int64(after) - int64(before); grown > bound {
		t.Errorf("live heap grew %.2f MB across two scenario misses, want at most %.2f MB", float64(grown)/1e6, float64(bound)/1e6)
	}
}
