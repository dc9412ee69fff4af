package main

import (
	"slices"
	"sort"
	"syscall"
	"time"
)

// endToEnd are the metrics a user of xbard sees, reported by untraced
// runs. BENCHMARK.json bounds each of them. fail_ratio is left out of
// the list, not the result file: it must stay 0, and the final line
// carries it as failed/attempted.
var endToEnd = []string{
	"setup_s", "throughput_rps", "latency_p50_us",
	"burst_slo_ratio", "server_cpu_us_per_req", "peak_rss_mb",
}

// perLayer are the layer metrics BENCHMARK.json lists, reported by
// traced runs: every timing among them is measured on every workload.
// The result file holds more (per-endpoint and per-tier timings that
// exist on some workloads only).
var perLayer = []string{
	"latency_p99_us",
	"server.handle_p50_us", "server.handle_p99_us", "server.self_p50_us",
	"server.decode_p50_us", "server.encode_p50_us", "http.self_p50_us",
	"core.validate_p50_us", "core.fill_p50_us", "core.fill_p99_us", "core.read_p50_us", "core.cells_filled",
	"endpoint.blocking.p50_us", "endpoint.blocking.p99_us",
	"outcome.hit.p50_us", "outcome.hit.p99_us",
	"outcome.hit.count", "outcome.miss.count", "outcome.shared.count", "outcome.asymptotic.count", "outcome.forwarded.count",
	"server.cache.hit_ratio", "server.cache.shared_ratio", "server.cache.evictions", "server.cache.recycled_ratio",
	"server.status_503", "server.scenario_cache.hit_ratio",
	"grid.models_per_request", "grid.cached_ratio",
	"cluster.forwarded_ratio", "cluster.fleet_hit_ratio", "cluster.replication_sent", "cluster.failovers",
	"cluster.postkill_hit_ratio", "cluster.postkill_misses",
	"loadgen.sent", "loadgen.late_p50_us", "loadgen.late_p99_us", "loadgen.cpu_s", "loadgen.host_factor",
	"burst.p50_us", "burst.p99_us",
	"trace.overhead_ratio", "trace.explained_ratio", "trace.composition_ratio",
}

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// quantile interpolates linearly between the closest ranks; 0 for no
// data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// setQuantiles sets <prefix>p50_us and <prefix>p99_us when there are
// samples (in microseconds).
func setQuantiles(m metrics, prefix string, xs []float64) {
	if len(xs) > 0 {
		m.set(prefix+"p50_us", quantile(xs, 0.5), "us")
		m.set(prefix+"p99_us", quantile(xs, 0.99), "us")
	}
}

func setP50(m metrics, name string, xs []float64) {
	if len(xs) > 0 {
		m.set(name, quantile(xs, 0.5), "us")
	}
}

// micros returns the latencies, in microseconds, of the correct
// samples keep selects.
func micros(ss []sample, keep func(*sample) bool) []float64 {
	var out []float64
	for i := range ss {
		if ss[i].ok() && keep(&ss[i]) {
			out = append(out, float64(ss[i].lat)/1e3)
		}
	}
	return out
}

func all(*sample) bool { return true }

func countOK(ss []sample) int {
	n := 0
	for i := range ss {
		if ss[i].ok() {
			n++
		}
	}
	return n
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// selfCPU is the CPU time this process has used, in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// phaseData is what one run measured, for the layer metrics.
type phaseData struct {
	closed    []sample // the (untraced) closed phase
	burst     []sample
	discarded []sample // burst phases run again because the generator ran late
	kill      []sample // cluster-3node's kill phase
	cache     counters // /metrics over the closed phase
	replSent  int64    // replication fan-outs since launch
	failovers int64    // over the kill phase
	sent      int
	status503 int
	clientCPU float64   // seconds over the closed phase
	factors   []float64 // host factor of each closed-phase window

	burstRetries int
}

// layerMetrics sets the per-layer metrics observable from outside the
// daemon: the responses' own fields (cached, tier, models, the serving
// node) and /metrics deltas. Counts and ratios are set on every
// workload, 0 where the layer takes no part.
func layerMetrics(m metrics, w *workload, d *phaseData) {
	closed := d.closed
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		setQuantiles(m, "endpoint."+ep.String()+".", micros(closed, func(s *sample) bool { return w.reqs[s.req].ep == ep }))
	}
	for o := outHit; o < outFailed; o++ {
		lat := micros(closed, func(s *sample) bool { return s.out == o })
		name := "outcome." + outcomeNames[o]
		setQuantiles(m, name+".", lat)
		m.set(name+".count", float64(len(lat)), "count")
	}
	c := d.cache
	m.set("outcome.shared.count", float64(c.shared), "count")
	lookups := float64(c.hits + c.misses + c.shared)
	m.set("server.cache.hit_ratio", ratio(float64(c.hits), lookups), "ratio")
	m.set("server.cache.shared_ratio", ratio(float64(c.shared), lookups), "ratio")
	m.set("server.cache.evictions", float64(c.evictions), "count")
	m.set("server.cache.recycled_ratio", ratio(float64(c.recycled), float64(c.misses)), "ratio")
	m.set("server.scenario_cache.hit_ratio", ratio(float64(c.scHits), float64(c.scHits+c.scMisses+c.scShared)), "ratio")
	m.set("server.status_503", float64(d.status503), "count")

	var cells int64
	var gridReqs, models, cached float64
	for i := range closed {
		s := &closed[i]
		rq := &w.reqs[s.req]
		if s.out == outMiss {
			cells += rq.cells()
		}
		if s.ok() && rq.ep == epGrid {
			gridReqs++
			models += float64(s.models)
			cached += float64(s.cached)
		}
	}
	m.set("core.cells_filled", float64(cells), "count")
	m.set("grid.models_per_request", ratio(models, gridReqs), "count")
	m.set("grid.cached_ratio", ratio(cached, models), "ratio")

	m.set("cluster.forwarded_ratio", ratio(m["outcome.forwarded.count"].Value, float64(countOK(closed))), "ratio")
	m.set("cluster.fleet_hit_ratio", ratio(float64(c.hits+c.shared), lookups), "ratio")
	m.set("cluster.replication_sent", float64(d.replSent), "count")
	m.set("cluster.failovers", float64(d.failovers), "count")
	var postMiss float64
	for i := range d.kill {
		if d.kill[i].out == outMiss {
			postMiss++
		}
	}
	m.set("cluster.postkill_misses", postMiss, "count")
	m.set("cluster.postkill_hit_ratio", ratio(float64(countOK(d.kill))-postMiss, float64(countOK(d.kill))), "ratio")
	if fs := forwardSelf(closed); fs != nil {
		m.set("cluster.forward_self_p50_us", *fs, "us")
	}

	var late []float64
	for i := range d.burst {
		late = append(late, float64(d.burst[i].late)/1e3)
	}
	setQuantiles(m, "loadgen.late_", late)
	m.set("loadgen.burst_retries", float64(d.burstRetries), "count")
	setQuantiles(m, "burst.", micros(d.burst, all))
	m.set("loadgen.sent", float64(d.sent), "count")
	m.set("loadgen.cpu_s", d.clientCPU, "s")
	m.set("loadgen.host_factor", quantile(d.factors, 0.5), "ratio")
}

// forwardSelf is what forwarding adds to a cache hit: the p50 latency
// of forwarded requests minus that of locally served hits, over the
// requests seen both ways. nil when there are none.
func forwardSelf(closed []sample) *float64 {
	fwd := make(map[int32][]float64)
	local := make(map[int32][]float64)
	for i := range closed {
		s := &closed[i]
		switch s.out {
		case outForwarded:
			fwd[s.req] = append(fwd[s.req], float64(s.lat)/1e3)
		case outHit:
			local[s.req] = append(local[s.req], float64(s.lat)/1e3)
		}
	}
	var f, l []float64
	for k, xs := range fwd {
		if ys, ok := local[k]; ok {
			f, l = append(f, xs...), append(l, ys...)
		}
	}
	if len(f) == 0 {
		return nil
	}
	v := quantile(f, 0.5) - quantile(l, 0.5)
	return &v
}
