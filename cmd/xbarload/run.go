package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"xbar/internal/rng"
)

// Phases of one run; the index also selects the phase's random streams.
const (
	phaseWarmup = iota
	phaseClosed
	phaseTraced
	phaseBurst
	phaseKill
)

// split is the share of the run's seconds each phase takes. Traced runs
// add a traced closed phase after the untraced one (their ratio is the
// tracing overhead); cluster-3node ends with the kill phase.
type split struct{ warmup, closed, traced, burst, kill float64 }

func phaseSplit(traced, cluster bool) split {
	switch {
	case traced && cluster:
		return split{warmup: 0.10, closed: 0.25, traced: 0.30, burst: 0.25, kill: 0.10}
	case traced:
		return split{warmup: 0.10, closed: 0.30, traced: 0.35, burst: 0.25}
	case cluster:
		return split{warmup: 0.15, closed: 0.50, burst: 0.25, kill: 0.10}
	}
	return split{warmup: 0.15, closed: 0.55, burst: 0.30}
}

// options are the settings of one workload run.
type options struct {
	seconds float64
	trace   bool
	xbard   string // daemon binary of untraced runs
	spans   string // where a traced run writes its spans; "" skips
}

// errInvalid marks a run whose numbers must not be used.
var errInvalid = errors.New("run invalid")

// maxReplay bounds the traced closed-phase requests the replay covers.
const maxReplay = 2000

// setupLaunches is how many launches setup_s is the median of.
const setupLaunches = 11

// closedWindows is how many windows the closed phase is measured in:
// about 0.45 s each in a 20 s run, short enough that the gauge readings
// on either side of a window follow the host through it.
const closedWindows = 24

// window is one slice of the closed phase.
type window struct {
	samples []sample
	dur     time.Duration
	cpu     float64 // xbard CPU seconds over the window
	client  float64 // load generator CPU seconds over the window
	factor  float64 // how slow the host ran over the window (gauge.go)
}

// measureClosed runs the closed phase, lasting d, as closedWindows
// consecutive windows on continuing streams. The gauge reads the host
// factor before the first window and after each, while no request is in
// flight; a window's factor is the mean of the readings on either side
// of it. serverCPU reads the CPU seconds the servers have used so far.
func (l *loader) measureClosed(ctx context.Context, gg *gauge, streams [workers]*rng.Stream, d time.Duration, nodes []int, serverCPU func() (float64, error)) ([]window, error) {
	before, err := gg.read()
	if err != nil {
		return nil, err
	}
	cpu, err := serverCPU()
	if err != nil {
		return nil, err
	}
	wins := make([]window, closedWindows)
	for k := range wins {
		win := &wins[k]
		self := selfCPU()
		win.samples, win.dur = l.closed(ctx, streams, d/closedWindows, nodes)
		win.client = selfCPU() - self
		next, err := serverCPU()
		if err != nil {
			return nil, err
		}
		win.cpu, cpu = next-cpu, next
		after, err := gg.read()
		if err != nil {
			return nil, err
		}
		win.factor, before = meanFactor(before, after), after
	}
	return wins, nil
}

// closedNames are the end-to-end metrics of the closed phase.
var closedNames = [...]string{"throughput_rps", "latency_p50_us", "latency_p99_us", "server_cpu_us_per_req"}

// setClosed sets the closed-phase metrics: the medians over the windows
// of each window's numbers at nominal host speed, and as measured under
// measured.<name>. It returns each window's numbers as measured.
func setClosed(m metrics, wins []window) []windowMetrics {
	units := [len(closedNames)]string{"req/s", "us", "us", "us"}
	var per []windowMetrics
	var measured, nominal [len(closedNames)][]float64
	for _, win := range wins {
		lat := micros(win.samples, all)
		wm := windowMetrics{
			Throughput: float64(len(lat)) / win.dur.Seconds(),
			P50:        quantile(lat, 0.5),
			P99:        quantile(lat, 0.99),
			CPU:        ratio(win.cpu*1e6, float64(len(win.samples))),
			Factor:     win.factor,
		}
		per = append(per, wm)
		f := win.factor
		scale := [len(closedNames)]float64{f, 1 / f, 1 / f, 1 / f} // a slow host lowers throughput, raises times
		for i, v := range [len(closedNames)]float64{wm.Throughput, wm.P50, wm.P99, wm.CPU} {
			measured[i] = append(measured[i], v)
			nominal[i] = append(nominal[i], v*scale[i])
		}
	}
	for i, name := range closedNames {
		m.set(name, quantile(nominal[i], 0.5), units[i])
		m.set("measured."+name, quantile(measured[i], 0.5), units[i])
	}
	return per
}

// result is one run of one workload.
type result struct {
	Workload  string          `json:"workload"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Errors    []string        `json:"errors,omitempty"`
	Metrics   metrics         `json:"metrics"`
	Windows   []windowMetrics `json:"windows,omitempty"`
}

// windowMetrics are one closed-phase window's end-to-end numbers as
// measured, before they are scaled to nominal host speed.
type windowMetrics struct {
	Throughput float64 `json:"throughput_rps"`
	P50        float64 `json:"latency_p50_us"`
	P99        float64 `json:"latency_p99_us"`
	CPU        float64 `json:"server_cpu_us_per_req"`
	Factor     float64 `json:"host_factor"`
}

// runWorkload runs one setup-and-phases cycle. Untraced runs launch
// xbard daemons and report the end-to-end metrics; traced runs serve
// from in-process servers, record spans, replay a sample, and report
// the per-layer metrics. Both report the layer metrics observable from
// outside the daemon.
func runWorkload(ctx context.Context, w *workload, o options) (*result, error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}, Timeout: time.Minute}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	launch := func() (fleet, error) {
		if tr != nil {
			f, err := startInproc(w.nodes, tr.wrap)
			if err != nil {
				return nil, err
			}
			return f, nil
		}
		f, err := startProcs(o.xbard, w.nodes)
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	var f fleet
	stop := func() error {
		if f == nil {
			return nil
		}
		client.CloseIdleConnections()
		err := f.stop()
		f = nil
		return err
	}
	defer stop() // error paths; the success path checks its own stop
	gg, err := newGauge()
	if err != nil {
		return nil, err
	}
	defer gg.close()

	// Setup: launch, /readyz on every node, prefill. setup_s is the
	// median over setupLaunches launches of the launch's time, divided by
	// the median host factor, read before each launch; a traced run
	// launches once, with spans on so that the replay sees the prefill's
	// fills.
	l := &loader{w: w, client: client, tr: tr}
	launches := setupLaunches
	if tr != nil {
		launches = 1
		tr.on.Store(true)
	}
	var setups, setupFactors []float64
	var pre []sample
	for i := 0; i < launches; i++ {
		// The previous launch is killed, not drained: its drain is not
		// part of setup, and a cluster node's graceful drain can wait 5 s
		// on connections its peers opened but never used.
		for j := 0; f != nil && j < len(f.nodes()); j++ {
			if err := f.kill(j); err != nil {
				return nil, err
			}
		}
		f = nil
		client.CloseIdleConnections()
		hf, err := gg.read()
		if err != nil {
			return nil, err
		}
		setupFactors = append(setupFactors, hf)
		t0 := time.Now()
		if f, err = launch(); err != nil {
			return nil, err
		}
		if err := waitReady(ctx, client, f.nodes()); err != nil {
			return nil, errors.Join(errInvalid, err, stop())
		}
		l.nodes = f.nodes()
		pre = l.sendAll(ctx, w.prefill)
		setups = append(setups, time.Since(t0).Seconds())
	}
	if tr != nil {
		tr.on.Store(false)
	}
	serverCPU := func() (float64, error) {
		if tr != nil {
			return 0, nil // in-process: there is no separate server process
		}
		return cpuSeconds(l.nodes)
	}

	sp := phaseSplit(tr != nil, w.nodes > 1)
	dur := func(share float64) time.Duration { return time.Duration(share * o.seconds * float64(time.Second)) }
	nodes := make([]int, w.nodes)
	for i := range nodes {
		nodes[i] = i
	}
	d := &phaseData{}
	warm, _ := l.closed(ctx, w.streams(phaseWarmup), dur(sp.warmup), nodes)
	c0, err := scrape(ctx, client, l.nodes)
	if err != nil {
		return nil, err
	}
	wins, err := l.measureClosed(ctx, gg, w.streams(phaseClosed), dur(sp.closed), nodes, serverCPU)
	if err != nil {
		return nil, err
	}
	for _, win := range wins {
		d.closed = append(d.closed, win.samples...)
		d.clientCPU += win.client
		d.factors = append(d.factors, win.factor)
	}
	c1, err := scrape(ctx, client, l.nodes)
	if err != nil {
		return nil, err
	}
	d.cache = c1.sub(c0)
	var traced []sample
	var tracedDur time.Duration
	if tr != nil {
		tr.on.Store(true)
		traced, tracedDur = l.closed(ctx, w.streams(phaseTraced), dur(sp.traced), nodes)
		tr.on.Store(false)
	}
	// The open loop measures xbard only while the generator keeps time:
	// its p99 lateness at nominal host speed must stay within a quarter of
	// the limit, the scale the burst latencies are held to. An untraced
	// burst phase whose generator ran late is run again, up to burstTries
	// times in all, and the last one counts.
	var scheduled int
	var burstFactor float64
	for try := 1; ; try++ {
		before, err := gg.read()
		if err != nil {
			return nil, err
		}
		d.burst, scheduled = l.burst(ctx, phaseBurst, dur(sp.burst))
		after, err := gg.read()
		if err != nil {
			return nil, err
		}
		burstFactor = meanFactor(before, after)
		if tr != nil || lateP99(d.burst)/burstFactor <= lateLimit(w) || try == burstTries {
			break
		}
		d.discarded = append(d.discarded, d.burst...)
		d.burstRetries++
	}
	var rss float64
	if tr == nil {
		if rss, err = peakRSSMB(l.nodes); err != nil {
			return nil, err
		}
	}
	c2, err := scrape(ctx, client, l.nodes)
	if err != nil {
		return nil, err
	}
	d.replSent = c2.replSent
	if w.nodes > 1 {
		// The kill phase: the generator drops one owner from its
		// rotation, as a balancer would, then stops it.
		victim := w.nodes - 1
		if err := f.kill(victim); err != nil {
			return nil, err
		}
		survivors := l.nodes[:victim]
		k0, err := scrape(ctx, client, survivors)
		if err != nil {
			return nil, err
		}
		d.kill, _ = l.closed(ctx, w.streams(phaseKill), dur(sp.kill), nodes[:victim])
		k1, err := scrape(ctx, client, survivors)
		if err != nil {
			return nil, err
		}
		d.failovers = k1.sub(k0).failovers
	}
	if err := stop(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &result{Workload: w.name, Metrics: metrics{}, Errors: l.errs}
	m := res.Metrics
	for _, ph := range [][]sample{pre, warm, d.closed, traced, d.discarded, d.burst, d.kill} {
		for i := range ph {
			res.Attempted++
			if !ph[i].ok() {
				res.Failed++
			}
			if ph[i].status == http.StatusServiceUnavailable {
				d.status503++
			}
		}
	}
	d.sent = res.Attempted
	layerMetrics(m, w, d)
	res.Windows = setClosed(m, wins)
	if tr != nil {
		var closedDur time.Duration
		for _, win := range wins {
			closedDur += win.dur
		}
		m.set("trace.overhead_ratio", ratio(float64(countOK(traced))/tracedDur.Seconds(), float64(countOK(d.closed))/closedDur.Seconds()), "ratio")
		if err := replayAll(m, tr, w, pre, traced, o.spans); err != nil {
			return nil, err
		}
		return res, nil
	}

	m.set("setup_s", quantile(setups, 0.5)/quantile(setupFactors, 0.5), "s")
	m.set("measured.setup_s", quantile(setups, 0.5), "s")
	// burst_slo_ratio holds each latency at nominal host speed to the
	// limit; measured.burst_slo_ratio holds it as measured.
	inLimit, measuredInLimit := 0, 0
	for i := range d.burst {
		if s := &d.burst[i]; s.ok() {
			if float64(s.lat)/burstFactor <= float64(w.limit) {
				inLimit++
			}
			if s.lat <= w.limit {
				measuredInLimit++
			}
		}
	}
	m.set("burst_slo_ratio", ratio(float64(inLimit), float64(scheduled)), "ratio")
	m.set("measured.burst_slo_ratio", ratio(float64(measuredInLimit), float64(scheduled)), "ratio")
	m.set("peak_rss_mb", rss, "MB")
	m.set("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")

	if late := lateP99(d.burst) / burstFactor; late > lateLimit(w) {
		return res, fmt.Errorf("%w: generator p99 lateness %.0f us at nominal host speed exceeds a quarter of the %v burst limit in %d burst phases", errInvalid, late, w.limit, burstTries)
	}
	return res, nil
}

// burstTries is how many times a run tries the burst phase.
const burstTries = 3

// lateLimit is the most p99 lateness at nominal host speed, in µs, a
// valid burst phase has: a quarter of the workload's limit.
func lateLimit(w *workload) float64 { return float64(w.limit) / 1e3 / 4 }

// lateP99 is the generator's p99 lateness over an open-loop phase, in
// µs.
func lateP99(ss []sample) float64 {
	late := make([]float64, len(ss))
	for i := range ss {
		late[i] = float64(ss[i].late) / 1e3
	}
	return quantile(late, 0.99)
}

// replayAll replays every prefill request and an even sample of the
// traced closed phase, derives the span metrics, and writes the spans.
func replayAll(m metrics, tr *tracer, w *workload, pre, traced []sample, path string) error {
	handles := make(map[uint64]span)
	for _, s := range tr.spans {
		if s.Name == "server.handle" {
			handles[s.Trace] = s
		}
	}
	logged := append([]sample(nil), pre...)
	measured := make(map[uint64]bool, len(traced))
	var ok []sample
	for _, s := range traced {
		measured[s.trace] = true
		if s.ok() {
			ok = append(ok, s)
		}
	}
	for i, step := 0, max(1, len(ok)/maxReplay); i < len(ok); i += step {
		logged = append(logged, ok[i])
	}
	rp := newReplayer(tr)
	replayed := make(map[uint64]bool, len(logged))
	for _, s := range logged {
		h, found := handles[s.trace]
		if !s.ok() || !found {
			continue
		}
		rq := &w.reqs[s.req]
		if err := rp.replay(rq, s.out, h); err != nil {
			return fmt.Errorf("replaying %s %s: %w", rq.ep.path(), clip(rq.body), err)
		}
		replayed[s.trace] = true
	}
	spanMetrics(m, tr.spans, measured, replayed)
	if path == "" {
		return nil
	}
	return tr.writeSpans(path)
}
