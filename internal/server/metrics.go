package server

import (
	"sync/atomic"
	"time"

	"xbar/internal/cluster"
)

// latencyBucketsNs are the histogram upper bounds, in nanoseconds:
// 100µs, 1ms, 10ms, 100ms, 1s, 10s, then overflow. A cached blocking
// read lands in the first bucket or two; a cold N=1024 fill in the
// hundreds of milliseconds; anything in the overflow bucket deserves
// a look at /debug/pprof.
var latencyBucketsNs = [...]int64{
	100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000,
}

// endpointMetrics is one endpoint's counters. All fields are atomics;
// observe and snapshot run lock-free.
type endpointMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	totalNs  atomic.Int64
	buckets  [len(latencyBucketsNs) + 1]atomic.Int64
}

// Metrics is the server-wide counter set behind GET /metrics. It is
// expvar-style: monotone counters and gauges rendered as one JSON
// document, cheap enough to scrape every second.
type Metrics struct {
	inFlight        atomic.Int64
	cache           cacheStats
	solversRecycled atomic.Int64
	scCache         cacheStats
	writeFailures   atomic.Int64

	endpoints map[string]*endpointMetrics
}

// cacheStats is one cache's lookup counters.
type cacheStats struct {
	hits      atomic.Int64
	misses    atomic.Int64
	shared    atomic.Int64 // attached to another request's in-flight fill
	evictions atomic.Int64
}

// newMetrics builds the counter set for a fixed endpoint list. The
// map is never mutated after construction, so concurrent observe and
// snapshot need no lock.
func newMetrics(endpoints ...string) *Metrics {
	m := &Metrics{endpoints: make(map[string]*endpointMetrics, len(endpoints))}
	for _, e := range endpoints {
		m.endpoints[e] = &endpointMetrics{}
	}
	return m
}

// observe records one finished request.
func (m *Metrics) observe(endpoint string, d time.Duration, failed bool) {
	e := m.endpoints[endpoint]
	if e == nil {
		return
	}
	e.requests.Add(1)
	if failed {
		e.errors.Add(1)
	}
	ns := d.Nanoseconds()
	e.totalNs.Add(ns)
	i := 0
	for i < len(latencyBucketsNs) && ns > latencyBucketsNs[i] {
		i++
	}
	e.buckets[i].Add(1)
}

// LatencyHistogram is the per-endpoint latency distribution; each
// field counts requests whose total latency was at or below the bound
// (and above the previous one).
type LatencyHistogram struct {
	Le100us int64 `json:"le_100us"`
	Le1ms   int64 `json:"le_1ms"`
	Le10ms  int64 `json:"le_10ms"`
	Le100ms int64 `json:"le_100ms"`
	Le1s    int64 `json:"le_1s"`
	Le10s   int64 `json:"le_10s"`
	Over10s int64 `json:"over_10s"`
}

// EndpointSnapshot is one endpoint's counters at snapshot time.
type EndpointSnapshot struct {
	Requests int64            `json:"requests"`
	Errors   int64            `json:"errors"`
	TotalMs  float64          `json:"total_ms"`
	AvgMs    float64          `json:"avg_ms"`
	Latency  LatencyHistogram `json:"latency"`
}

// CacheSnapshot is the solver cache's counters at snapshot time.
type CacheSnapshot struct {
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	SharedInFlight  int64 `json:"shared_in_flight"`
	Evictions       int64 `json:"evictions"`
	SolversRecycled int64 `json:"solvers_recycled"`
}

// ScenarioCacheSnapshot is the /v1/scenario result cache's counters at
// snapshot time.
type ScenarioCacheSnapshot struct {
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	SharedInFlight int64 `json:"shared_in_flight"`
	Evictions      int64 `json:"evictions"`
}

// Snapshot is the GET /metrics document. Cluster is present only when
// clustering is enabled, so the single-node document stays
// bit-identical to the pre-cluster daemon's.
type Snapshot struct {
	InFlight      int64                       `json:"in_flight"`
	WriteFailures int64                       `json:"write_failures"`
	Cache         CacheSnapshot               `json:"cache"`
	ScenarioCache ScenarioCacheSnapshot       `json:"scenario_cache"`
	Cluster       *cluster.Snapshot           `json:"cluster,omitempty"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
}

// Snapshot renders the counters. Counters are read individually, not
// under a lock, so a snapshot taken mid-request is approximate — the
// usual monitoring contract.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		InFlight:      m.inFlight.Load(),
		WriteFailures: m.writeFailures.Load(),
		Cache: CacheSnapshot{
			Hits:            m.cache.hits.Load(),
			Misses:          m.cache.misses.Load(),
			SharedInFlight:  m.cache.shared.Load(),
			Evictions:       m.cache.evictions.Load(),
			SolversRecycled: m.solversRecycled.Load(),
		},
		ScenarioCache: ScenarioCacheSnapshot{
			Hits:           m.scCache.hits.Load(),
			Misses:         m.scCache.misses.Load(),
			SharedInFlight: m.scCache.shared.Load(),
			Evictions:      m.scCache.evictions.Load(),
		},
		Endpoints: make(map[string]EndpointSnapshot, len(m.endpoints)),
	}
	for name, e := range m.endpoints {
		n := e.requests.Load()
		totalMs := float64(e.totalNs.Load()) / 1e6
		es := EndpointSnapshot{
			Requests: n,
			Errors:   e.errors.Load(),
			TotalMs:  totalMs,
			Latency: LatencyHistogram{
				Le100us: e.buckets[0].Load(),
				Le1ms:   e.buckets[1].Load(),
				Le10ms:  e.buckets[2].Load(),
				Le100ms: e.buckets[3].Load(),
				Le1s:    e.buckets[4].Load(),
				Le10s:   e.buckets[5].Load(),
				Over10s: e.buckets[6].Load(),
			},
		}
		if n > 0 {
			es.AvgMs = totalMs / float64(n)
		}
		s.Endpoints[name] = es
	}
	return s
}
