// Package server implements xbard's HTTP service layer: the paper's
// analytical engine — Algorithm 1/2 blocking and concurrency, the
// Section 4 revenue measures, admission decisions, amortized sub-size
// sweeps — behind a stdlib-only JSON API.
//
// The layer is built for sustained concurrent traffic:
//
//   - one SIEVE cache type for solvers and scenario results, keyed by
//     the canonicalized model (for solvers: algorithm, dimensions,
//     per-route classes — names excluded) so repeated evaluations of
//     one operating point share a single fill;
//   - single-flight deduplication, so concurrent identical requests
//     wait for one fill instead of racing N of them;
//   - Solver.Reuse recycling: evicted entries return their lattices to
//     a free pool, and the next miss refills the smallest pooled
//     lattice that holds it in place of allocating. An entry keeps
//     only the lattices its reads need, 16 bytes per cell with either
//     algorithm; the lattices only a fill reads (Algorithm 1's W,
//     Algorithm 2's D) are lent by a shared scratch for the fill;
//   - a bounded solve semaphore sized against the wavefront worker
//     pool, taken by fills only, so concurrent fills do not
//     oversubscribe GOMAXPROCS;
//   - strict input validation (finite floats, dimension and class
//     caps, unknown-field rejection), request body limits, per-request
//     timeouts and graceful drain.
//
// See docs/SERVER.md for the API reference and tuning guidance.
package server

import (
	"fmt"
	"runtime"
	"time"

	"xbar/internal/cluster"
)

// Config parameterizes a Server. The zero value is usable: every field
// left at zero is replaced by the default documented on it.
type Config struct {
	// Addr is the API listen address. Default ":8480".
	Addr string
	// DebugAddr, when non-empty, serves net/http/pprof and /metrics on
	// a second mux. Keep it bound to loopback; there is no auth.
	DebugAddr string
	// MaxBodyBytes caps request bodies; larger requests get 413.
	// Default 1 MiB.
	MaxBodyBytes int64
	// RequestTimeout bounds one request's wait for a solver slot and
	// for a deduplicated in-flight fill. A lattice fill itself is not
	// cancellable mid-flight; see docs/SERVER.md. Default 30s.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight requests get
	// this long to finish after SIGTERM. Default 15s.
	DrainTimeout time.Duration
	// CacheSize is the solver-cache capacity in entries (one retained
	// lattice each, O(N1*N2) memory per entry). Default 64.
	CacheSize int
	// ScenarioCacheSize is the /v1/scenario result-cache capacity in
	// entries (one evaluated measure set each — small and immutable,
	// unlike the solver cache's lattices). Default 64.
	ScenarioCacheSize int
	// MaxDim caps switch dimensions the exact tier will fill a lattice
	// for. Default 1024.
	MaxDim int
	// MaxAsymDim caps switch dimensions for requests carrying a
	// dispatch policy other than exact: the asymptotic tier is O(R)
	// whatever the size, so the cap exists only to keep inputs sane.
	// Sizes in (MaxDim, MaxAsymDim] are asymptotic-only — requesting
	// one with dispatch=exact is a 422. Default 1 << 20.
	MaxAsymDim int
	// MaxClasses caps accepted traffic-class counts. Default 64.
	MaxClasses int
	// MaxSweepPoints caps one /v1/sweep request's point list.
	// Default 4096.
	MaxSweepPoints int
	// MaxGridPoints caps one /v1/grid request's point list. Grid points
	// are costlier than sweep points (each may be a distinct lattice
	// fill), so the default is smaller: 256.
	MaxGridPoints int
	// MaxConcurrent bounds the solves in flight at once (the solve
	// semaphore): cache fills (lattice fills and scenario evaluations)
	// and exact-tier revenue gradient re-solves. Cache hits that only
	// read a lattice take no slot. Default runtime.GOMAXPROCS(0).
	MaxConcurrent int
	// NodeID names this node in a cluster; it must be a key of Peers.
	// Ignored (may stay empty) when Peers is empty.
	NodeID string
	// Peers maps every cluster member's id — including this node's —
	// to its API base URL ("http://host:port"). Empty means single-node
	// operation: the cluster layer is disabled entirely and the server
	// behaves bit-identically to the pre-cluster daemon.
	Peers map[string]string
	// VNodes is the virtual nodes per member on the consistent-hash
	// ring. Default 64.
	VNodes int
	// Logf, when non-nil, receives lifecycle log lines (Printf style).
	Logf func(format string, args ...any)
}

// withDefaults returns cfg with every zero field replaced by its
// documented default.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8480"
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 64
	}
	if c.ScenarioCacheSize == 0 {
		c.ScenarioCacheSize = 64
	}
	if c.MaxDim == 0 {
		c.MaxDim = 1024
	}
	if c.MaxAsymDim == 0 {
		c.MaxAsymDim = 1 << 20
	}
	if c.MaxClasses == 0 {
		c.MaxClasses = 64
	}
	if c.MaxSweepPoints == 0 {
		c.MaxSweepPoints = 4096
	}
	if c.MaxGridPoints == 0 {
		c.MaxGridPoints = 256
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	return c
}

// validate rejects configurations the server cannot run with. It is
// called on the defaulted config.
func (c Config) validate() error {
	if c.MaxBodyBytes < 0 {
		return fmt.Errorf("server: MaxBodyBytes %d is negative", c.MaxBodyBytes)
	}
	if c.RequestTimeout < 0 || c.DrainTimeout < 0 {
		return fmt.Errorf("server: negative timeout (request %v, drain %v)", c.RequestTimeout, c.DrainTimeout)
	}
	if c.CacheSize < 1 {
		return fmt.Errorf("server: CacheSize %d, must be >= 1", c.CacheSize)
	}
	if c.ScenarioCacheSize < 1 {
		return fmt.Errorf("server: ScenarioCacheSize %d, must be >= 1", c.ScenarioCacheSize)
	}
	if c.MaxDim < 1 || c.MaxClasses < 1 || c.MaxSweepPoints < 1 || c.MaxGridPoints < 1 {
		return fmt.Errorf("server: limits must be >= 1 (MaxDim %d, MaxClasses %d, MaxSweepPoints %d, MaxGridPoints %d)",
			c.MaxDim, c.MaxClasses, c.MaxSweepPoints, c.MaxGridPoints)
	}
	if c.MaxAsymDim < c.MaxDim {
		return fmt.Errorf("server: MaxAsymDim %d is below MaxDim %d", c.MaxAsymDim, c.MaxDim)
	}
	if c.MaxConcurrent < 1 {
		return fmt.Errorf("server: MaxConcurrent %d, must be >= 1", c.MaxConcurrent)
	}
	if len(c.Peers) > 0 {
		if _, ok := c.Peers[c.NodeID]; !ok {
			return fmt.Errorf("server: NodeID %q is not a member of Peers", c.NodeID)
		}
	} else if c.NodeID != "" {
		return fmt.Errorf("server: NodeID %q without Peers", c.NodeID)
	}
	if c.VNodes < 0 {
		return fmt.Errorf("server: VNodes %d is negative", c.VNodes)
	}
	return nil
}

// clusterConfig derives the cluster layer's configuration; callers
// check len(Peers) > 0 first.
func (c Config) clusterConfig() cluster.Config {
	return cluster.Config{NodeID: c.NodeID, Peers: c.Peers, VNodes: c.VNodes}
}

// logf forwards to Logf when configured.
func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}
