package server

import (
	"sync/atomic"
	"time"

	"xbar/internal/cluster"
	"xbar/internal/latency"
)

// endpointMetrics is one endpoint's counters. All fields are atomics;
// observe and snapshot run lock-free.
type endpointMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	latency  latency.Histogram
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

	// endpoints is filled while New registers the routes and never
	// mutated after, so concurrent observe and snapshot need no lock.
	endpoints map[string]*endpointMetrics
}

// cacheStats is one cache's lookup counters.
type cacheStats struct {
	hits      atomic.Int64
	misses    atomic.Int64
	shared    atomic.Int64 // attached to another request's in-flight fill
	evictions atomic.Int64
}

// snapshot renders the counters.
func (c *cacheStats) snapshot() CacheCounters {
	return CacheCounters{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		SharedInFlight: c.shared.Load(),
		Evictions:      c.evictions.Load(),
	}
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
	e.latency.Observe(d)
}

// EndpointSnapshot is one endpoint's counters at snapshot time.
type EndpointSnapshot struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	latency.Summary
}

// CacheCounters is one cache's lookup counters at snapshot time. The
// /v1/scenario result cache reports exactly these.
type CacheCounters struct {
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	SharedInFlight int64 `json:"shared_in_flight"`
	Evictions      int64 `json:"evictions"`
}

// CacheSnapshot is the solver cache's counters at snapshot time: the
// lookup counters plus the evicted lattices recycled into a fill.
type CacheSnapshot struct {
	CacheCounters
	SolversRecycled int64 `json:"solvers_recycled"`
}

// Snapshot is the GET /metrics document. Cluster is present only when
// clustering is enabled, so the single-node document stays
// bit-identical to the pre-cluster daemon's.
type Snapshot struct {
	InFlight      int64                       `json:"in_flight"`
	WriteFailures int64                       `json:"write_failures"`
	Cache         CacheSnapshot               `json:"cache"`
	ScenarioCache CacheCounters               `json:"scenario_cache"`
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
		Cache:         CacheSnapshot{CacheCounters: m.cache.snapshot(), SolversRecycled: m.solversRecycled.Load()},
		ScenarioCache: m.scCache.snapshot(),
		Endpoints:     make(map[string]EndpointSnapshot, len(m.endpoints)),
	}
	for name, e := range m.endpoints {
		s.Endpoints[name] = EndpointSnapshot{
			Requests: e.requests.Load(),
			Errors:   e.errors.Load(),
			Summary:  e.latency.Snapshot(),
		}
	}
	return s
}
