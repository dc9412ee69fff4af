package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// handleReadyz is the readiness probe, distinct from /healthz
// liveness: 200 only between ring initialization and the start of
// shutdown. A draining node is alive (healthz 200) but not ready
// (readyz 503), so balancers and peers stop routing to it before its
// listener closes.
func (s *Server) handleReadyz(call) (any, error) {
	switch {
	case s.draining.Load():
		return nil, &apiError{code: http.StatusServiceUnavailable, msg: "draining", doc: map[string]string{"status": "draining"}}
	case !s.ready.Load():
		return nil, &apiError{code: http.StatusServiceUnavailable, msg: "starting", doc: map[string]string{"status": "starting"}}
	}
	return map[string]string{"status": "ready"}, nil
}

// ClusterNodeStatus is one member's row in the GET /v1/cluster rollup.
type ClusterNodeStatus struct {
	NodeID    string    `json:"node_id"`
	Addr      string    `json:"addr"`
	Self      bool      `json:"self,omitempty"`
	Reachable bool      `json:"reachable"`
	Error     string    `json:"error,omitempty"`
	Metrics   *Snapshot `json:"metrics,omitempty"`
}

// ClusterFleet aggregates cache effectiveness across the reachable
// members: the fleet-wide hit rate is the number a load test reads to
// see the ring working (misses stay at one per distinct model no
// matter which node the client hits). Hits include shared in-flight
// waits — both avoided a fill.
type ClusterFleet struct {
	Nodes             int     `json:"nodes"`
	Reachable         int     `json:"reachable"`
	CacheHits         int64   `json:"cache_hits"`
	CacheMisses       int64   `json:"cache_misses"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	ScenarioCacheHits int64   `json:"scenario_cache_hits"`
	ScenarioCacheMiss int64   `json:"scenario_cache_misses"`
	Forwards          int64   `json:"forwards"`
	ForwardErrors     int64   `json:"forward_errors"`
	Failovers         int64   `json:"failovers"`
}

// ClusterStatusResponse is the GET /v1/cluster reply: one row per
// member (this node answers from its own counters, peers are scraped
// live over /metrics) and the fleet aggregate.
type ClusterStatusResponse struct {
	NodeID string              `json:"node_id"`
	Nodes  []ClusterNodeStatus `json:"nodes"`
	Fleet  ClusterFleet        `json:"fleet"`
}

// handleCluster serves the fleet rollup. Unreachable peers get an
// error row, never fail the rollup; 404 in single-node mode.
func (s *Server) handleCluster(rc call) (any, error) {
	c := s.cluster
	if c == nil {
		return nil, &apiError{code: http.StatusNotFound, msg: "cluster disabled (single-node)"}
	}
	nodes := c.Nodes()
	rows := make([]ClusterNodeStatus, len(nodes))
	var wg sync.WaitGroup
	for i, id := range nodes {
		row := &rows[i]
		row.NodeID = id
		row.Addr = c.PeerURL(id)
		if id == c.NodeID() {
			snap := s.metricsSnapshot()
			row.Self, row.Reachable, row.Metrics = true, true, &snap
			continue
		}
		wg.Add(1)
		go func(row *ClusterNodeStatus, id string) {
			defer wg.Done()
			data, err := c.FetchJSON(rc.r.Context(), id, "/metrics")
			if err != nil {
				row.Error = err.Error()
				return
			}
			var snap Snapshot
			if err := json.Unmarshal(data, &snap); err != nil {
				row.Error = fmt.Sprintf("decoding peer metrics: %v", err)
				return
			}
			row.Reachable = true
			row.Metrics = &snap
		}(row, id)
	}
	wg.Wait()
	resp := ClusterStatusResponse{NodeID: c.NodeID(), Nodes: rows}
	fleet := &resp.Fleet
	fleet.Nodes = len(nodes)
	for i := range rows {
		m := rows[i].Metrics
		if !rows[i].Reachable || m == nil {
			continue
		}
		fleet.Reachable++
		fleet.CacheHits += m.Cache.Hits + m.Cache.SharedInFlight
		fleet.CacheMisses += m.Cache.Misses
		fleet.ScenarioCacheHits += m.ScenarioCache.Hits + m.ScenarioCache.SharedInFlight
		fleet.ScenarioCacheMiss += m.ScenarioCache.Misses
		if cs := m.Cluster; cs != nil {
			fleet.Forwards += cs.Forwards
			fleet.ForwardErrors += cs.ForwardErrors
			fleet.Failovers += cs.Failovers
		}
	}
	if lookups := fleet.CacheHits + fleet.CacheMisses; lookups > 0 {
		fleet.CacheHitRate = float64(fleet.CacheHits) / float64(lookups)
	}
	return resp, nil
}

// metricsSnapshot renders the full /metrics document: the server
// counters, plus the cluster section when clustering is enabled (the
// single-node document is unchanged).
func (s *Server) metricsSnapshot() Snapshot {
	snap := s.metrics.Snapshot()
	if s.cluster != nil {
		cs := s.cluster.Snapshot()
		snap.Cluster = &cs
	}
	return snap
}
