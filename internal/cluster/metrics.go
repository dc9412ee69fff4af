package cluster

import (
	"sync/atomic"
	"time"
)

// forwardBucketsNs are the forward-latency histogram bounds, matching
// the server's endpoint buckets: 100µs, 1ms, 10ms, 100ms, 1s, 10s,
// then overflow. A warm forwarded cache hit is a loopback round trip
// (first two buckets); overflow means a peer is timing out.
var forwardBucketsNs = [...]int64{
	100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000,
}

// peerMetrics is one peer's forwarding counters. All fields are
// atomics; record and snapshot run lock-free.
type peerMetrics struct {
	forwards    atomic.Int64
	errors      atomic.Int64
	skippedDown atomic.Int64
	totalNs     atomic.Int64
	buckets     [len(forwardBucketsNs) + 1]atomic.Int64
}

func (p *peerMetrics) observe(d time.Duration) {
	ns := d.Nanoseconds()
	p.totalNs.Add(ns)
	i := 0
	for i < len(forwardBucketsNs) && ns > forwardBucketsNs[i] {
		i++
	}
	p.buckets[i].Add(1)
}

// Metrics is the cluster-wide counter set merged into the server's
// GET /metrics document.
type Metrics struct {
	forwards        atomic.Int64 // requests proxied to a peer, any outcome
	forwardErrors   atomic.Int64 // forwards that exhausted their retries
	failovers       atomic.Int64 // forwards that fell back to local compute
	forwardedServed atomic.Int64 // requests served here on a peer's behalf

	perPeer map[string]*peerMetrics // fixed at construction, no lock
}

func newClusterMetrics(peerIDs []string) *Metrics {
	m := &Metrics{perPeer: make(map[string]*peerMetrics, len(peerIDs))}
	for _, id := range peerIDs {
		m.perPeer[id] = &peerMetrics{}
	}
	return m
}

// RecordFailover counts one forward that degraded to local compute.
func (m *Metrics) RecordFailover() { m.failovers.Add(1) }

// RecordForwardedServed counts one request served locally on behalf of
// a peer (it arrived with the forwarded marker).
func (m *Metrics) RecordForwardedServed() { m.forwardedServed.Add(1) }

// ForwardLatencyHistogram is one peer's forward-latency distribution,
// same bucket scheme as the server's endpoint histograms.
type ForwardLatencyHistogram struct {
	Le100us int64 `json:"le_100us"`
	Le1ms   int64 `json:"le_1ms"`
	Le10ms  int64 `json:"le_10ms"`
	Le100ms int64 `json:"le_100ms"`
	Le1s    int64 `json:"le_1s"`
	Le10s   int64 `json:"le_10s"`
	Over10s int64 `json:"over_10s"`
}

// PeerSnapshot is one peer's forwarding state at snapshot time.
type PeerSnapshot struct {
	Addr        string                  `json:"addr"`
	Healthy     bool                    `json:"healthy"`
	Forwards    int64                   `json:"forwards"`
	Errors      int64                   `json:"errors"`
	SkippedDown int64                   `json:"skipped_down"`
	TotalMs     float64                 `json:"total_ms"`
	AvgMs       float64                 `json:"avg_ms"`
	Latency     ForwardLatencyHistogram `json:"latency"`
}

// Snapshot is the cluster section of the GET /metrics document.
type Snapshot struct {
	NodeID          string                  `json:"node_id"`
	VNodes          int                     `json:"vnodes"`
	Forwards        int64                   `json:"forwards"`
	ForwardErrors   int64                   `json:"forward_errors"`
	Failovers       int64                   `json:"failovers"`
	ForwardedServed int64                   `json:"forwarded_served"`
	Peers           map[string]PeerSnapshot `json:"peers"`

	// Replication is never set and never encoded. Its only reader is
	// cmd/xbarload's cluster.replication_sent metric; delete it the
	// next time that benchmark is changed.
	Replication struct{ Sent int64 } `json:"-"`
}
