package main

// Tracing for the per-layer numbers. A traced run serves the workload
// from in-process servers whose handlers are wrapped here: the client
// records a client.request span around each request, the wrapper a
// server.handle span around Handler().ServeHTTP. Nothing inside xbard
// records spans. After the load, a single-threaded replay feeds logged
// requests through the public functions the handlers call and records
// each stage as a child span of the request's server.handle span.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xbar/internal/core"
	"xbar/internal/grid"
	"xbar/internal/revenue"
	"xbar/internal/scenario"
	"xbar/internal/server"
)

// traceHeader carries a request's trace id from the load generator to
// the span wrapper. Peers do not forward it, so the owner's half of a
// forwarded request is not traced.
const traceHeader = "X-Xbarload-Trace"

// span is one timed interval, as written to spans.jsonl. Times are
// nanoseconds since the tracer started. Parent 0 marks a root.
type span struct {
	Trace  uint64 `json:"trace_id"`
	ID     uint64 `json:"span_id"`
	Parent uint64 `json:"parent_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory. A traced request takes two ids: the
// first names its trace and its client.request span, the second its
// server.handle span.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin() uint64 { return t.ids.Add(2) - 1 }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap records a server.handle span around every traced request h
// serves.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{Trace: id, ID: id + 1, Parent: id, Name: "server.handle", Start: start, End: t.now()})
	})
}

// writeSpans writes one span per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close() //lint:allow errcheck the encode error is the one reported
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() //lint:allow errcheck the flush error is the one reported
		return err
	}
	return f.Close()
}

// replayCache is how many filled lattices the replay keeps: fewer than
// xbard's 64, since a lattice it lacks is filled untimed.
const replayCache = 16

// replayer runs logged requests through the handlers' public functions
// one at a time and records each stage as a child span of the request's
// server.handle span. The measured durations are laid end to end from
// the parent's start, so a span's self time is what the replay does not
// explain.
type replayer struct {
	t    *tracer
	lru  []*lattice // most recently used first
	grid *grid.Engine
	scen *scenario.Engine
	sink float64 // keeps replayed reads from being optimized away
}

// fillSchedule is xbard's default lattice-fill schedule: up to
// GOMAXPROCS fills at once, each on one worker. The replay fills the
// same way, so that its stages time what the handler ran.
var fillSchedule = core.Parallel(1, 0)

func newReplayer(t *tracer) *replayer {
	return &replayer{
		t:    t,
		grid: grid.New(grid.Options{Workers: 1}),
		scen: scenario.New(scenario.Options{NoMemo: true, Grid: grid.Options{Workers: 1}}),
	}
}

// lattice is one replayed solver-cache entry.
type lattice struct {
	key string
	alg string
	s1  *core.SweepSolver
	s2  *core.MVASweepSolver
}

func (e *lattice) fill(alg string, sw core.Switch) error {
	e.alg = alg
	if alg == alg2 {
		if e.s2 == nil {
			e.s2 = &core.MVASweepSolver{}
		}
		return e.s2.Reuse(sw, fillSchedule)
	}
	if e.s1 == nil {
		e.s1 = &core.SweepSolver{}
	}
	return e.s1.Reuse(sw, fillSchedule)
}

func (e *lattice) resultAt(n1, n2 int) *core.Result {
	if e.alg == alg2 {
		return e.s2.ResultAt(n1, n2)
	}
	return e.s1.ResultAt(n1, n2)
}

func (e *lattice) result() *core.Result {
	if e.alg == alg2 {
		return e.s2.Result()
	}
	return e.s1.Result()
}

// stageFunc times one replay stage as a span: the fastest of reps runs
// of fn.
type stageFunc func(name string, reps int, fn func() error) error

// bestOf is how many times the replay runs a stage whose repetition
// leaves no trace. Reads (core.read, revenue.analysis) fill the
// solver's result memo and grid.solve fills the grid memo, so those run
// once. A one-off replay runs colder than the live handler's hot loop;
// the fastest of a few runs is what a stage costs once warm, and
// server.self keeps the rest.
const bestOf = 3

// entry returns the lattice of rq's cache entry. When xbard answered
// the request as a miss, the fill is timed as core.fill. For a hit, a
// lattice the replay does not hold is filled and read once untimed, so
// the timed read finds it as warm as xbard's cache did.
func (rp *replayer) entry(rq *request, miss bool, stage stageFunc) (*lattice, error) {
	var e *lattice
	for i, x := range rp.lru {
		if x.key == rq.entry {
			e = x
			copy(rp.lru[1:i+1], rp.lru[:i])
			rp.lru[0] = e
			break
		}
	}
	if e != nil && !miss {
		return e, nil
	}
	if e == nil {
		if len(rp.lru) < replayCache {
			e = &lattice{}
			rp.lru = append(rp.lru, nil)
		} else {
			e = rp.lru[len(rp.lru)-1] // evicted: its solvers are refilled in place
		}
		copy(rp.lru[1:], rp.lru[:len(rp.lru)-1])
		rp.lru[0] = e
		e.key = rq.entry
	}
	fill := func() error { return e.fill(rq.alg, rq.sw) }
	if miss {
		return e, stage("core.fill", bestOf, fill)
	}
	if err := fill(); err != nil {
		return nil, err
	}
	rp.sink += e.result().LogG
	return e, nil
}

// replay times one logged request's stages under parent, its
// server.handle span. A forwarded request was only decoded and
// validated where it arrived, so only those stages are replayed.
func (rp *replayer) replay(rq *request, out outcome, parent span) error {
	at := parent.Start
	stage := func(name string, reps int, fn func() error) error {
		d := int64(math.MaxInt64)
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if err := fn(); err != nil {
				return err
			}
			d = min(d, int64(time.Since(t0)))
		}
		rp.t.add(span{Trace: parent.Trace, ID: rp.t.ids.Add(1), Parent: parent.ID, Name: name, Start: at, End: at + d})
		at += d
		return nil
	}
	miss, local := out == outMiss, out != outForwarded
	encode := func() error {
		return stage("server.encode", bestOf, func() error { return json.NewEncoder(io.Discard).Encode(rq.want) })
	}
	var sw core.Switch
	validate := func(spec server.SwitchSpec) error {
		return stage("core.validate", bestOf, func() (err error) {
			sw, err = switchOf(spec)
			return err
		})
	}
	decode := func(v any) error {
		return stage("server.decode", bestOf, func() error { return decodeStrict(rq.body, v) })
	}

	switch rq.in.(type) {
	case *server.BlockingRequest:
		var req server.BlockingRequest
		if err := decode(&req); err != nil {
			return err
		}
		if err := validate(req.SwitchSpec); err != nil || !local {
			return err
		}
		if req.Dispatch != "" {
			err := stage("asymptotic.solve", bestOf, func() error {
				pol, err := core.ParseDispatch(req.Dispatch)
				if err != nil {
					return err
				}
				res, _, err := core.TryAsymptotic(sw, core.DispatchOptions{Policy: pol})
				if res != nil {
					rp.sink += res.LogG
				}
				return err
			})
			if err != nil {
				return err
			}
			return encode()
		}
		e, err := rp.entry(rq, miss, stage)
		if err != nil {
			return err
		}
		if err := stage("core.read", 1, func() error { rp.sink += e.result().LogG; return nil }); err != nil {
			return err
		}
		return encode()

	case *server.RevenueRequest:
		var req server.RevenueRequest
		if err := decode(&req); err != nil {
			return err
		}
		if err := validate(req.SwitchSpec); err != nil || !local {
			return err
		}
		e, err := rp.entry(rq, miss, stage)
		if err != nil {
			return err
		}
		err = stage("revenue.analysis", 1, func() error {
			an, err := revenue.NewWithSweep(e.s1, req.Weights, fillSchedule)
			if err != nil {
				return err
			}
			rp.sink += an.W()
			for i, c := range sw.Classes {
				rp.sink += an.ShadowCost(i) + an.GradientRhoClosed(i)
				if req.Gradients && !c.IsPoisson() && sw.MinN() >= 2 {
					rp.sink += an.GradientBetaMu(i, defaultStep)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		return encode()

	case *server.AdmissionRequest:
		var req server.AdmissionRequest
		if err := decode(&req); err != nil {
			return err
		}
		if err := validate(req.SwitchSpec); err != nil || !local {
			return err
		}
		e, err := rp.entry(rq, miss, stage)
		if err != nil {
			return err
		}
		err = stage("revenue.analysis", 1, func() error {
			an, err := revenue.NewWithSweep(e.s1, req.Weights)
			if err != nil {
				return err
			}
			rp.sink += an.ShadowCost(req.Class)
			return nil
		})
		if err != nil {
			return err
		}
		return encode()

	case *server.SweepRequest:
		var req server.SweepRequest
		if err := decode(&req); err != nil {
			return err
		}
		if err := validate(req.SwitchSpec); err != nil || !local {
			return err
		}
		e, err := rp.entry(rq, miss, stage)
		if err != nil {
			return err
		}
		err = stage("core.read", 1, func() error {
			for _, p := range req.Points {
				res := e.resultAt(p.N1, p.N2)
				rp.sink += res.LogG
				if req.Weights != nil {
					rp.sink += res.Revenue(req.Weights)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		return encode()

	case *server.GridRequest:
		var req server.GridRequest
		if err := decode(&req); err != nil {
			return err
		}
		var points []core.Switch
		var deltas []grid.PointDelta
		err := stage("core.validate", bestOf, func() error {
			base, err := switchOf(req.SwitchSpec)
			if err != nil {
				return err
			}
			deltas = gridDeltas(&req)
			points, err = grid.Points(base, deltas)
			for i := 0; err == nil && i < len(points); i++ {
				err = points[i].Validate()
			}
			sw = base
			return err
		})
		if err != nil || !local {
			return err
		}
		err = stage("grid.solve", 1, func() error {
			res, err := rp.grid.SolveDeltas(sw, deltas)
			if err == nil {
				rp.sink += res[0].LogG
			}
			return err
		})
		if err != nil {
			return err
		}
		return encode()

	case *scenario.Spec:
		var spec *scenario.Spec
		err := stage("scenario.decode", bestOf, func() (err error) {
			if spec, err = scenario.Decode(bytes.NewReader(rq.body)); err == nil {
				err = spec.Validate(scenario.Limits{})
			}
			return err
		})
		if err != nil || !local {
			return err
		}
		if miss {
			err := stage("scenario.evaluate", bestOf, func() error {
				res, err := rp.scen.Evaluate(spec)
				if err == nil {
					rp.sink += float64(len(res.Measures))
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		return encode()
	}
	return nil
}

// decodeStrict decodes a request body with xbard's strictness: unknown
// fields and trailing data rejected.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// selfTimes returns every span's self time: its duration minus the
// part of its interval its children cover. Children of one span do not
// overlap each other (a request has one server span; replayed stages
// are laid end to end), so the covered parts add up.
func selfTimes(spans []span) map[uint64]int64 {
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	self := make(map[uint64]int64, len(spans))
	for i := range spans {
		self[spans[i].ID] += spans[i].dur()
	}
	for i := range spans {
		c := &spans[i]
		p, ok := byID[c.Parent]
		if !ok {
			continue
		}
		if lo, hi := max(c.Start, p.Start), min(c.End, p.End); hi > lo {
			self[p.ID] -= hi - lo
		}
	}
	return self
}

// spanMetrics derives the per-layer metrics of a traced run. measured
// holds the trace ids of the traced closed phase, replayed those of the
// requests the replay covered (the prefill included, so core.fill is
// measured on every workload).
func spanMetrics(m metrics, spans []span, measured, replayed map[uint64]bool) {
	self := selfTimes(spans)
	childSum := make(map[uint64]int64)
	stages := make(map[string][]float64)
	for i := range spans {
		s := &spans[i]
		if s.Name != "client.request" && s.Name != "server.handle" {
			stages[s.Name] = append(stages[s.Name], float64(s.dur())/1e3)
			childSum[s.Parent] += s.dur()
		}
	}
	var handle, serverSelf, httpSelf, explained, composition []float64
	for i := range spans {
		s := &spans[i]
		if !measured[s.Trace] {
			continue
		}
		switch s.Name {
		case "client.request":
			httpSelf = append(httpSelf, float64(self[s.ID])/1e3)
		case "server.handle":
			handle = append(handle, float64(s.dur())/1e3)
			if replayed[s.Trace] {
				serverSelf = append(serverSelf, float64(self[s.ID])/1e3)
				// The share of the handler's time the replayed stages
				// explain: below 1 by server.self, above 1 when they overrun.
				explained = append(explained, float64(childSum[s.ID])/float64(s.dur()))
				// 1 when the replayed stages fit inside the handler's time;
				// above 1 by as much as they overrun it.
				composition = append(composition, float64(childSum[s.ID]+self[s.ID])/float64(s.dur()))
			}
		}
	}
	setQuantiles(m, "server.handle_", handle)
	setP50(m, "server.self_p50_us", serverSelf)
	setP50(m, "http.self_p50_us", httpSelf)
	for name, xs := range stages {
		setP50(m, name+"_p50_us", xs)
	}
	if xs := stages["core.fill"]; len(xs) > 0 {
		m.set("core.fill_p99_us", quantile(xs, 0.99), "us")
	}
	if len(composition) > 0 {
		m.set("trace.explained_ratio", mean(explained), "ratio")
		m.set("trace.composition_ratio", mean(composition), "ratio")
	}
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
