// Package sim is a discrete-event simulator of the asynchronous,
// unbuffered N1 x N2 crossbar the paper models analytically — the
// "compare with simulation" item in the paper's future work, and this
// reproduction's substitute for a physical optical switch fabric.
//
// Unlike the analytical model, the simulator represents the fabric
// explicitly: each input and output port is tracked individually, a
// class-r request draws a_r distinct inputs and a_r distinct outputs
// uniformly at random at its (unslotted, asynchronous) arrival instant,
// is accepted only if every port is idle, and is cleared otherwise.
// Arrivals follow the state-dependent BPP intensity
// lambda_r(k_r) = alpha_r + beta_r k_r per ordered route — implemented
// exactly, by resampling the class's exponential arrival clock whenever
// k_r changes. Holding times come from any rng.ServiceDist, which is
// what makes the insensitivity experiments possible.
//
// Two blocking measures are reported, because they genuinely differ for
// bursty traffic (no PASTA without Poisson arrivals):
//
//   - time congestion: the time-average probability that a randomly
//     chosen candidate route is idle — the quantity the paper's
//     B_r(N) = G(N-a_r I)/G(N) computes. Estimated two ways: by the
//     conditional-expectation (Rao-Blackwellized) estimator
//     P(N1-occ,a) P(N2-occ,a) / (P(N1,a) P(N2,a)), and by the raw
//     idle-indicator of one fixed route.
//   - call congestion: the fraction of offered class-r requests that
//     are blocked, which is what a user of the switch experiences.
//
// The engine is built for event throughput (docs/SIMULATOR.md): live
// connections occupy slots of a pre-sized port arena recycled through
// a free list, departures carry only an 8-byte (class, slot) record
// through the event queue, and every time-weighted statistic is a
// flat per-batch array updated incrementally — occupancy and
// fixed-route state as time-in-state histograms folded against the
// measure tables once per run, per-class concurrency lazily on k_r
// changes. Steady-state operation performs zero allocations per
// event, and state objects are Reset-recyclable so the replication
// farm (Farm) reuses one state per worker across replications.
package sim

import (
	"fmt"
	"math"

	"xbar/internal/combin"
	"xbar/internal/core"
	"xbar/internal/eventq"
	"xbar/internal/rng"
	"xbar/internal/stats"
)

// Config parameterizes one simulation run.
type Config struct {
	// Switch is the model to simulate (per-route class units, exactly
	// as the analytical solvers take it).
	Switch core.Switch
	// Seed makes the run reproducible.
	Seed uint64
	// Warmup is the simulated time discarded before measurement.
	Warmup float64
	// Horizon is the measured simulated time after warmup.
	Horizon float64
	// Batches divides the horizon for batch-means confidence
	// intervals; 0 defaults to 20.
	Batches int
	// Service optionally overrides the holding-time distribution per
	// class; nil entries (or a nil slice) default to exponential with
	// mean 1/mu_r. Means must equal 1/mu_r — Run enforces this so a
	// config cannot silently diverge from the model it claims to
	// simulate.
	Service []rng.ServiceDist
	// Level is the confidence level (default 0.95).
	Level float64
	// MaxEvents caps the event count as a runaway guard; 0 means
	// 50 million.
	MaxEvents int64
	// Admit, when non-nil, is an admission policy evaluated at each
	// arrival before port selection: a rejected request is counted as
	// blocked and cleared. The slice passed is the live class-count
	// vector; policies must not retain or modify it. Under Farm the
	// policy is called from multiple replications concurrently, so it
	// must be safe for concurrent use (a pure function of its
	// arguments is).
	Admit AdmitFunc
}

// AdmitFunc decides whether a class arrival may enter the fabric given
// the current class-count vector (mirrors
// statespace.AdmissionPolicy).
type AdmitFunc func(k []int, class int) bool

// ClassResult aggregates the per-class estimates of one run.
type ClassResult struct {
	// Offered and Blocked count measured class arrivals.
	Offered, Blocked int64
	// CallBlocking is the blocked fraction of offered requests.
	CallBlocking stats.CI
	// TimeNonBlocking is the Rao-Blackwellized estimate of B_r(N).
	TimeNonBlocking stats.CI
	// FixedRouteIdle is the raw idle-time fraction of one fixed
	// candidate route — an unbiased but higher-variance estimate of
	// the same B_r(N).
	FixedRouteIdle stats.CI
	// Concurrency is the time-average number of class connections,
	// estimating E_r(N).
	Concurrency stats.CI
}

// Result is the outcome of a run.
type Result struct {
	Classes []ClassResult
	// Utilization is the time-average busy fraction of min(N1,N2)
	// occupancy capacity.
	Utilization float64
	// MeanOccupancy is the time-average number of busy inputs.
	MeanOccupancy float64
	// Occupancy[s] is the measured time fraction with exactly s busy
	// inputs — directly comparable to the convolution evaluator's
	// analytic occupancy distribution.
	Occupancy []float64
	// Events is the number of processed events in the measured phase.
	Events int64
}

const defaultMaxEvents = 50_000_000

// runParams is a validated, defaulted Config shared by Run and Farm.
type runParams struct {
	sw        core.Switch
	service   []rng.ServiceDist
	win       stats.Window
	level     float64
	maxEvents int64
}

// prepare validates the config and resolves defaults.
func prepare(cfg Config) (runParams, error) {
	var p runParams
	p.sw = cfg.Switch
	if err := p.sw.Validate(); err != nil {
		return p, err
	}
	win, err := stats.NewWindow(cfg.Warmup, cfg.Horizon, cfg.Batches)
	if err != nil {
		return p, fmt.Errorf("sim: %w", err)
	}
	p.win = win
	p.level = cfg.Level
	if p.level == 0 { //lint:allow floatcmp zero value of Config.Level selects the default (Go zero-value idiom)
		p.level = 0.95
	}
	p.maxEvents = cfg.MaxEvents
	if p.maxEvents == 0 {
		p.maxEvents = defaultMaxEvents
	}
	if cfg.Service != nil && len(cfg.Service) != len(p.sw.Classes) {
		return p, fmt.Errorf("sim: %d service distributions for %d classes",
			len(cfg.Service), len(p.sw.Classes))
	}
	p.service = make([]rng.ServiceDist, len(p.sw.Classes))
	for r, c := range p.sw.Classes {
		if cfg.Service != nil && cfg.Service[r] != nil {
			p.service[r] = cfg.Service[r]
			if m := p.service[r].Mean(); math.Abs(m-1/c.Mu) > 1e-9*math.Max(m, 1/c.Mu) {
				return p, fmt.Errorf("sim: class %d service mean %v != 1/mu = %v", r, m, 1/c.Mu)
			}
		} else {
			p.service[r] = rng.Exponential{M: 1 / c.Mu}
		}
	}
	return p, nil
}

// Run simulates the configured switch and returns estimates with
// confidence intervals.
func Run(cfg Config) (*Result, error) {
	p, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	s := newState(p, cfg)
	s.reset(rng.NewStream(cfg.Seed))
	if err := s.run(p.maxEvents); err != nil {
		return nil, err
	}
	return finalize(s.extract(), p.level, p.win.Batches()), nil
}

// conn is the compact departure record carried through the event
// queue: the connection's class and its slot in the port arena.
type conn struct {
	class int32
	slot  int32
}

type classSim struct {
	a      int
	routes float64 // P(N1,a) P(N2,a): ordered candidate routes
	// invRate[k] is 1 / (routes * (alpha + beta k)), the mean
	// inter-arrival time at class count k, precomputed so the hot path
	// never divides; a negative entry marks rate <= 0 (no arrivals).
	// k never exceeds MinN, so the table covers every reachable count.
	invRate []float64
	// expMean > 0 devirtualizes the common exponential holding time:
	// sample as ExpUnit()*expMean instead of an interface call.
	expMean float64
	// kDep marks beta != 0: the arrival rate depends on k, so the
	// class clock must be resampled whenever k changes. Poisson
	// classes (beta == 0) keep their clock across k changes — exact by
	// memorylessness, and it saves a draw per departure.
	kDep    bool
	service rng.ServiceDist
}

type state struct {
	sw      core.Switch
	rng     *rng.Stream
	classes []classSim
	// nextArr[r] is class r's next arrival instant, kept out of
	// classSim so the per-event earliest-arrival scan walks a
	// contiguous float64 array.
	nextArr []float64
	busyIn  []bool
	busyOut []bool
	occ     int // busy inputs (= busy outputs)
	k       []int

	// Connection arena: slot i's ports live at ports[i*stride :
	// i*stride+2a] (a inputs then a outputs); free is the stack of
	// recyclable slots. Capacity is MinN slots — every connection
	// seizes at least one input, so no more can be live at once.
	stride int
	ports  []int32
	free   []int32

	// Departure schedule: the 4-ary heap, unless useFlat selects the
	// flat cached-min schedule below.
	heap *eventq.Queue[conn]

	// Flat departure schedule, used for small fabrics (minN <=
	// flatScheduleMax) instead of the heap: an unordered array with a
	// cached argmin. A heap's sift comparisons are data-random and
	// mispredict ~half the time; a linear min-scan's running-min
	// branch is taken only O(log n) times in expectation, so for small
	// n the scan is substantially faster per event. The cache makes it
	// one scan per departure: pushes keep the cached min up to date,
	// only popping it invalidates.
	useFlat bool
	depAt   []float64
	depC    []conn
	depMin  int // cached argmin of depAt, -1 when invalid

	now     float64
	win     stats.Window
	batches int

	// Current measurement batch, advanced monotonically by the run
	// loop: curB is the batch index of s.now, valid on [curB0, curB1).
	// flush needs one comparison against curB0 to place the common
	// within-batch span — no float->int conversion on the hot path.
	// curB0 starts at the warmup boundary (so warmup spans take the
	// clipping slow path) and is forced to +Inf for the final flushes.
	curB         int
	curB0, curB1 float64

	// Time-in-state histograms, flat [state*batches + b]: occTime by
	// occupancy (minN+1 states), fixTime by fixed-route idle prefix
	// (maxFix+1 states, fixState = largest a with inputs 0..a-1 and
	// outputs 0..a-1 all idle, capped at maxFix). Both accumulate
	// lazily: occSince/fixSince record when the current state was
	// entered, and flushOcc/flushFix integrate the elapsed span only
	// when the state actually changes (and once at the end of the run).
	// Every occupancy- or route-dependent measure is recovered from the
	// histograms after the run.
	occTime  []float64
	fixTime  []float64
	occSince float64
	fixSince float64
	fixState int
	maxFix   int

	// Lazy per-class concurrency accumulation, flat [r*batches + b]:
	// class r's row is only touched when k_r changes (flushK), not on
	// every event. kSince[r] is the time k_r took its current value.
	kTW    []float64
	kSince []float64

	// Arrival counters, flat [r*batches + b].
	offered []int64
	blocked []int64

	// scratch buffers for route sampling
	pickIn, pickOut []int
	// pairDraw marks both port counts as powers of two: a single-route
	// pick then uses disjoint bit fields of one 64-bit draw (low bits
	// for the input, bits 32+ for the output) instead of two draws.
	pairDraw     bool
	mask1, mask2 int
	events       int64
	admit        AdmitFunc
}

// newState builds a state for the prepared config. The state carries
// no randomness yet: call reset with a stream before run. One state
// is reusable across any number of reset/run cycles — construction
// is the only allocation site.
func newState(p runParams, cfg Config) *state {
	sw := p.sw
	minN := sw.MinN()
	batches := p.win.Batches()
	s := &state{
		sw:      sw,
		nextArr: make([]float64, len(sw.Classes)),
		busyIn:  make([]bool, sw.N1),
		busyOut: make([]bool, sw.N2),
		k:       make([]int, len(sw.Classes)),
		win:     p.win,
		batches: batches,
		kSince:  make([]float64, len(sw.Classes)),
		kTW:     make([]float64, len(sw.Classes)*batches),
		offered: make([]int64, len(sw.Classes)*batches),
		blocked: make([]int64, len(sw.Classes)*batches),
		occTime: make([]float64, (minN+1)*batches),
		admit:   cfg.Admit,
	}
	maxA := 0
	for r, c := range sw.Classes {
		routes := combin.Perm(sw.N1, c.A) * combin.Perm(sw.N2, c.A)
		cs := classSim{
			a:       c.A,
			routes:  routes,
			kDep:    c.Beta != 0, //lint:allow floatcmp beta exactly zero selects the Poisson fast path
			service: p.service[r],
		}
		cs.invRate = make([]float64, minN+1)
		for k := range cs.invRate {
			rate := routes * (c.Alpha + c.Beta*float64(k))
			if rate > 0 {
				cs.invRate[k] = 1 / rate
			} else {
				cs.invRate[k] = -1
			}
		}
		if e, ok := cs.service.(rng.Exponential); ok {
			cs.expMean = e.M
		}
		s.classes = append(s.classes, cs)
		if c.A > maxA {
			maxA = c.A
		}
	}
	s.maxFix = maxA
	if s.maxFix > minN {
		s.maxFix = minN
	}
	s.fixTime = make([]float64, (s.maxFix+1)*batches)
	s.pickIn = make([]int, maxA)
	s.pickOut = make([]int, maxA)
	s.pairDraw = sw.N1&(sw.N1-1) == 0 && sw.N2&(sw.N2-1) == 0
	s.mask1 = sw.N1 - 1
	s.mask2 = sw.N2 - 1
	s.stride = 2 * maxA
	s.ports = make([]int32, minN*s.stride)
	s.free = make([]int32, 0, minN)
	if minN <= flatScheduleMax {
		s.useFlat = true
		s.depAt = make([]float64, 0, minN)
		s.depC = make([]conn, 0, minN)
		s.depMin = -1
	} else {
		s.heap = eventq.New[conn](minN)
	}
	return s
}

// flatScheduleMax is the largest min(N1, N2) for which the flat
// cached-min departure schedule beats the 4-ary heap; beyond it the
// O(n) min-scan loses to the heap's O(log n) sift.
const flatScheduleMax = 64

// flatPeek returns the earliest scheduled departure, rescanning only
// when the cached argmin was invalidated by a pop.
func (s *state) flatPeek() (float64, bool) {
	if len(s.depAt) == 0 {
		return 0, false
	}
	m := s.depMin
	if m < 0 {
		m = 0
		for i, at := range s.depAt {
			if at < s.depAt[m] {
				m = i
			}
		}
		s.depMin = m
	}
	return s.depAt[m], true
}

// flatPop removes and returns the earliest scheduled departure.
func (s *state) flatPop() conn {
	if s.depMin < 0 {
		s.flatPeek()
	}
	m := s.depMin
	v := s.depC[m]
	n := len(s.depAt) - 1
	s.depAt[m] = s.depAt[n]
	s.depC[m] = s.depC[n]
	s.depAt = s.depAt[:n]
	s.depC = s.depC[:n]
	s.depMin = -1
	return v
}

// flatPush schedules a departure, keeping the cached argmin valid.
func (s *state) flatPush(at float64, c conn) {
	if m := s.depMin; m >= 0 && at < s.depAt[m] {
		s.depMin = len(s.depAt)
	}
	s.depAt = append(s.depAt, at)
	s.depC = append(s.depC, c)
}

// reset rewinds the state to time zero with a fresh random stream,
// zeroing every accumulator while keeping all backing arrays.
func (s *state) reset(stream *rng.Stream) {
	s.rng = stream
	clear(s.busyIn)
	clear(s.busyOut)
	clear(s.k)
	clear(s.kSince)
	clear(s.kTW)
	clear(s.offered)
	clear(s.blocked)
	clear(s.occTime)
	clear(s.fixTime)
	s.occ = 0
	s.now = 0
	s.occSince = 0
	s.fixSince = 0
	s.events = 0
	s.fixState = s.maxFix
	s.curB = 0
	s.curB0 = s.win.Start()
	s.curB1 = s.win.Start() + s.win.BatchLen()
	s.free = s.free[:0]
	for i := len(s.ports)/max(s.stride, 1) - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	if s.useFlat {
		s.depAt = s.depAt[:0]
		s.depC = s.depC[:0]
		s.depMin = -1
	} else {
		s.heap.Reset()
	}
	for r := range s.classes {
		s.nextArr[r] = s.sampleArrival(0, &s.classes[r], 0)
	}
}

// sampleArrival draws the next class arrival time from t given count k.
func (s *state) sampleArrival(t float64, cs *classSim, k int) float64 {
	inv := cs.invRate[k]
	if inv < 0 {
		return math.Inf(1)
	}
	return t + s.rng.ExpUnit()*inv
}

// flush adds value*dt over [t0, s.now) to the per-batch areas in out
// (one contiguous histogram row), clipping to the measurement window.
// The overwhelmingly common case — a span inside the current batch —
// is one comparison and one add; warmup spans and batch-crossing
// spans fall through to the window's Add, which clips and splits.
func (s *state) flush(out []float64, t0, value float64) {
	if t0 >= s.curB0 {
		// s.now < s.curB1 by the run-loop invariant, so the whole
		// span lies in batch curB.
		out[s.curB] += value * (s.now - t0)
		return
	}
	s.win.Add(out, t0, s.now, value)
}

// advanceBatch moves the current-batch window forward to contain t.
// Called only when t crossed curB1 — at most batches times per run.
func (s *state) advanceBatch(t float64) {
	for t >= s.curB1 && s.curB < s.batches-1 {
		s.curB++
		s.curB0 = s.curB1
		s.curB1 += s.win.BatchLen()
	}
	if s.curB == s.batches-1 {
		// Last batch: everything up to the horizon lands here, and
		// rounding drift in the repeated += must not re-trigger the
		// crossing test every event.
		s.curB1 = math.Inf(1)
	}
}

// flushOcc integrates the current occupancy's time-in-state row over
// [occSince, now). Call immediately before changing s.occ, and once at
// the end of the run.
func (s *state) flushOcc() {
	b := s.batches
	s.flush(s.occTime[s.occ*b:(s.occ+1)*b], s.occSince, 1)
	s.occSince = s.now
}

// flushFix integrates the current fixed-route prefix's time-in-state
// row over [fixSince, now). Call immediately before recomputeFix, and
// once at the end of the run.
func (s *state) flushFix() {
	b := s.batches
	s.flush(s.fixTime[s.fixState*b:(s.fixState+1)*b], s.fixSince, 1)
	s.fixSince = s.now
}

// flushK integrates class r's concurrency at its current value over
// [kSince[r], now). Call immediately before changing k[r], and once
// at the end of the run.
func (s *state) flushK(r int) {
	s.flush(s.kTW[r*s.batches:(r+1)*s.batches], s.kSince[r], float64(s.k[r]))
	s.kSince[r] = s.now
}

// recomputeFix rescans the fixed-route prefix: fixState becomes the
// largest a (capped at maxFix) with inputs 0..a-1 and outputs 0..a-1
// all idle. Called only when a port below maxFix toggled.
func (s *state) recomputeFix() {
	f := s.maxFix
	for i := 0; i < s.maxFix; i++ {
		if s.busyIn[i] || s.busyOut[i] {
			f = i
			break
		}
	}
	s.fixState = f
}

// run dispatches to the fused fast loop when its preconditions hold
// (flat departure schedule, no admission policy, and port counts that
// fit the loop's 64-bit busy bitmasks), else to the generic loop.
// Both produce bit-identical trajectories for the same stream:
// runFast is a register-allocated transcription of runGeneric, pinned
// by TestRunFastMatchesGeneric.
func (s *state) run(maxEvents int64) error {
	if s.useFlat && s.admit == nil && s.sw.N1 <= 64 && s.sw.N2 <= 64 {
		return s.runFast(maxEvents)
	}
	return s.runGeneric(maxEvents)
}

func (s *state) runGeneric(maxEvents int64) error {
	for {
		// Next event: earliest departure or class arrival.
		var t float64
		var ok bool
		if s.useFlat {
			t, ok = s.flatPeek()
		} else {
			t, ok = s.heap.PeekTime()
		}
		kind := -1 // -1 none, -2 departure, r >= 0 arrival of class r
		if ok {
			kind = -2
		} else {
			t = math.Inf(1)
		}
		for r, ta := range s.nextArr {
			if ta < t {
				t = ta
				kind = r
			}
		}
		if kind == -1 || t >= s.win.End() {
			s.now = s.win.End()
			// Force the final flushes through the clipping slow path:
			// the last spans may cross any number of batches.
			s.curB0 = math.Inf(1)
			s.flushOcc()
			s.flushFix()
			for r := range s.classes {
				s.flushK(r)
			}
			return nil
		}
		// Event times are monotone (departures are scheduled in the
		// future, arrival clocks are resampled past now), so advancing
		// the clock is a plain store; all time-weighted statistics
		// integrate lazily when their state next changes.
		s.now = t
		if t >= s.curB1 {
			s.advanceBatch(t)
		}
		s.events++
		if s.events > maxEvents {
			return fmt.Errorf("sim: exceeded %d events before horizon; load too high for the configured horizon", maxEvents)
		}
		if kind == -2 {
			s.depart()
		} else {
			s.arrive(kind)
		}
	}
}

func (s *state) depart() {
	var d conn
	if s.useFlat {
		d = s.flatPop()
	} else {
		_, d = s.heap.Pop()
	}
	r := int(d.class)
	cs := &s.classes[r]
	a := cs.a
	base := int(d.slot) * s.stride
	low := false
	for i := 0; i < a; i++ {
		in := s.ports[base+i]
		out := s.ports[base+a+i]
		s.busyIn[in] = false
		s.busyOut[out] = false
		if int(in) < s.maxFix || int(out) < s.maxFix {
			low = true
		}
	}
	s.free = append(s.free, d.slot)
	s.flushOcc()
	s.occ -= a
	s.flushK(r)
	s.k[r]--
	if low {
		s.flushFix()
		s.recomputeFix()
	}
	// The class arrival rate changed with k: resample its clock.
	// Poisson classes keep theirs — the rate did not change, and the
	// exponential residual is memoryless.
	if cs.kDep {
		s.nextArr[r] = s.sampleArrival(s.now, cs, s.k[r])
	}
}

func (s *state) arrive(r int) {
	cs := &s.classes[r]
	a := cs.a
	// Measurement batch of this arrival instant, read off the run
	// loop's current-batch cursor; -1 during warmup (s.now < s.win.End()
	// always holds for events).
	b := -1
	if s.now >= s.win.Start() {
		b = s.curB
		s.offered[r*s.batches+b]++
	}
	// Admission policy first, then draw a_r distinct inputs and
	// outputs uniformly. The arrival clock only fires for classes
	// with routes > 0, so a fits the fabric here.
	ok := true
	if s.admit != nil && !s.admit(s.k, r) {
		ok = false
	}
	if ok {
		if a == 1 {
			in, out := s.pickOne()
			s.pickIn[0] = in
			s.pickOut[0] = out
			ok = !s.busyIn[in] && !s.busyOut[out]
		} else {
			sampleDistinct(s.rng, s.sw.N1, a, s.pickIn)
			sampleDistinct(s.rng, s.sw.N2, a, s.pickOut)
			for i := 0; i < a; i++ {
				if s.busyIn[s.pickIn[i]] || s.busyOut[s.pickOut[i]] {
					ok = false
					break
				}
			}
		}
	}
	if !ok {
		if b >= 0 {
			s.blocked[r*s.batches+b]++
		}
		// Blocked-and-cleared: k unchanged, clock rate unchanged, but
		// the exponential clock must still be redrawn past now.
		s.nextArr[r] = s.sampleArrival(s.now, cs, s.k[r])
		return
	}
	slot := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	base := int(slot) * s.stride
	low := false
	for i := 0; i < a; i++ {
		in := s.pickIn[i]
		out := s.pickOut[i]
		s.ports[base+i] = int32(in)
		s.ports[base+a+i] = int32(out)
		s.busyIn[in] = true
		s.busyOut[out] = true
		if in < s.maxFix || out < s.maxFix {
			low = true
		}
	}
	s.flushOcc()
	s.occ += a
	s.flushK(r)
	s.k[r]++
	if low {
		s.flushFix()
		s.recomputeFix()
	}
	var hold float64
	if cs.expMean > 0 {
		hold = s.rng.ExpUnit() * cs.expMean
	} else {
		hold = cs.service.Sample(s.rng)
	}
	d := conn{class: int32(r), slot: slot}
	if s.useFlat {
		s.flatPush(s.now+hold, d)
	} else {
		s.heap.Push(s.now+hold, d)
	}
	s.nextArr[r] = s.sampleArrival(s.now, cs, s.k[r])
}

// pickOne draws one input and one output port index for a
// single-route (a = 1) arrival. Power-of-two fabrics pay one 64-bit
// draw for both picks; others pay two rejection draws. runFast
// inlines exactly this logic — the two paths must stay draw-for-draw
// identical (TestRunFastMatchesGeneric pins it).
func (s *state) pickOne() (in, out int) {
	if s.pairDraw {
		u := s.rng.Uint64()
		return int(u) & s.mask1, int(u>>32) & s.mask2
	}
	return s.rng.Intn(s.sw.N1), s.rng.Intn(s.sw.N2)
}

// sampleDistinct fills out[:a] with a distinct uniform indices from
// [0, n) by rejection, which is fast because a << n in every sensible
// configuration.
func sampleDistinct(stream *rng.Stream, n, a int, out []int) {
	for i := 0; i < a; i++ {
	redraw:
		for {
			v := stream.Intn(n)
			for j := 0; j < i; j++ {
				if out[j] == v {
					continue redraw
				}
			}
			out[i] = v
			break
		}
	}
}

// rawClass is one replication's per-batch record for one class.
type rawClass struct {
	offered, blocked []int64
	// Per-batch batch means: concurrency, Rao-Blackwellized route
	// idle probability, fixed-route idle fraction.
	kB, rbB, fxB []float64
}

// raw is one replication's per-batch record, the mergeable unit the
// farm pools across replications before interval construction.
type raw struct {
	events  int64
	occB    []float64 // per-batch mean occupancy
	occHist []float64 // time with occupancy s, unnormalized
	classes []rawClass
}

// extract folds the time-in-state histograms against the per-class
// measure tables and snapshots every per-batch series. The returned
// raw is independent of the state, which may be reset and reused.
func (s *state) extract() *raw {
	b := s.batches
	minN := s.sw.MinN()
	out := &raw{
		events:  s.events,
		occB:    make([]float64, b),
		occHist: make([]float64, minN+1),
		classes: make([]rawClass, len(s.classes)),
	}
	inv := 1 / s.win.BatchLen()
	for st := 0; st <= minN; st++ {
		row := s.occTime[st*b : (st+1)*b]
		tot := 0.0
		for i, v := range row {
			out.occB[i] += float64(st) * v * inv
			tot += v
		}
		out.occHist[st] = tot
	}
	for r := range s.classes {
		cs := &s.classes[r]
		rc := &out.classes[r]
		rc.offered = append([]int64(nil), s.offered[r*b:(r+1)*b]...)
		rc.blocked = append([]int64(nil), s.blocked[r*b:(r+1)*b]...)
		rc.kB = make([]float64, b)
		for i, v := range s.kTW[r*b : (r+1)*b] {
			rc.kB[i] = v * inv
		}
		// Rao-Blackwellized route idle probability: a function of the
		// occupancy alone, recovered from the occupancy-time rows.
		rc.rbB = make([]float64, b)
		if cs.routes > 0 {
			for st := 0; st <= minN; st++ {
				rb := combin.Perm(s.sw.N1-st, cs.a) * combin.Perm(s.sw.N2-st, cs.a) / cs.routes
				if rb == 0 { //lint:allow floatcmp exact zero above full occupancy; skips the row fold
					continue
				}
				row := s.occTime[st*b : (st+1)*b]
				for i, v := range row {
					rc.rbB[i] += rb * v * inv
				}
			}
		}
		// Fixed-route idle: time with idle prefix >= a.
		rc.fxB = make([]float64, b)
		if cs.a <= s.maxFix {
			for f := cs.a; f <= s.maxFix; f++ {
				row := s.fixTime[f*b : (f+1)*b]
				for i, v := range row {
					rc.fxB[i] += v * inv
				}
			}
		}
	}
	return out
}

// finalize builds the reported Result from one replication's record.
func finalize(w *raw, level float64, batches int) *Result {
	res := &Result{Events: w.events}
	occCI := stats.BatchMeans(w.occB, level)
	res.MeanOccupancy = occCI.Mean
	res.Utilization = occCI.Mean / float64(len(w.occHist)-1)
	total := 0.0
	for _, v := range w.occHist {
		total += v
	}
	if total > 0 {
		res.Occupancy = make([]float64, len(w.occHist))
		for i, v := range w.occHist {
			res.Occupancy[i] = v / total
		}
	}
	for r := range w.classes {
		rc := &w.classes[r]
		var blockBatches []float64
		var offered, blocked int64
		for b := 0; b < batches; b++ {
			offered += rc.offered[b]
			blocked += rc.blocked[b]
			if rc.offered[b] > 0 {
				blockBatches = append(blockBatches, float64(rc.blocked[b])/float64(rc.offered[b]))
			}
		}
		cr := ClassResult{
			Offered:         offered,
			Blocked:         blocked,
			Concurrency:     stats.BatchMeans(rc.kB, level),
			TimeNonBlocking: stats.BatchMeans(rc.rbB, level),
			FixedRouteIdle:  stats.BatchMeans(rc.fxB, level),
		}
		cr.CallBlocking = stats.BatchCI(blockBatches, level)
		res.Classes = append(res.Classes, cr)
	}
	return res
}
