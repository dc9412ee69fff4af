package cluster

import (
	"sync/atomic"

	"xbar/internal/latency"
)

// peerMetrics is one peer's forwarding counters. All fields are
// atomics; record and snapshot run lock-free.
type peerMetrics struct {
	forwards    atomic.Int64
	errors      atomic.Int64
	skippedDown atomic.Int64
	latency     latency.Histogram // successful forwards, from the first attempt to the answer
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

// PeerSnapshot is one peer's forwarding state at snapshot time.
type PeerSnapshot struct {
	Addr        string `json:"addr"`
	Healthy     bool   `json:"healthy"`
	Forwards    int64  `json:"forwards"`
	Errors      int64  `json:"errors"`
	SkippedDown int64  `json:"skipped_down"`
	latency.Summary
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
