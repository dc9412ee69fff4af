// Package cluster turns a fleet of xbard processes into one logical
// cache: a static-membership consistent-hash ring assigns every
// canonical cache key (solver model keys, scenario spec keys, grid
// group keys — already hex-exact and process-independent) to exactly
// one owner node, and a peer-forwarding layer proxies requests whose
// key lives elsewhere so any node answers any query while the fleet
// performs each expensive lattice fill once.
//
// The layer is deliberately availability-biased: a dead or slow peer
// never turns into a client-facing error. Forwarding retries a bounded
// number of times over a persistent connection pool, marks the peer
// down behind an exponential backoff gate (the next request after the
// gate expires doubles as the reconnect probe), and then falls back to
// computing locally — exactly the pre-cluster single-node behavior.
// Results are bit-identical wherever they are computed (the solvers
// are deterministic and schedule-independent), so failover changes
// cost, never answers. See docs/CLUSTER.md.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"time"
)

// Forwarded-request markers. HeaderForwarded carries the origin node
// id on proxied requests and is the loop guard: a request bearing it
// is always served locally, never re-forwarded, so a ring-view skew
// can cost one extra hop but never a cycle. HeaderNode on responses
// names the node that actually served the request.
const (
	HeaderForwarded = "X-Xbar-Forwarded"
	HeaderNode      = "X-Xbar-Node"
)

// Forwarding bounds: a forwarded request gets forwardAttempts tries of
// at most forwardTimeout each before the caller falls over to local
// compute. forwardTimeout also bounds a FetchJSON call.
const (
	forwardAttempts = 2
	forwardTimeout  = 10 * time.Second
)

// The statuses the client tells apart: FetchJSON accepts statusOK
// only, and a forward answered statusServerError or above falls over
// to local compute.
const (
	statusOK          = 200
	statusServerError = 500
)

// ErrPeerDown reports a forward skipped because the target peer is
// inside its reconnect backoff window.
var ErrPeerDown = errors.New("cluster: peer down (backoff gate)")

// Config parameterizes a Cluster.
type Config struct {
	// NodeID is this node's member id; it must be a key of Peers.
	NodeID string
	// Peers maps every cluster member's id — including this node's —
	// to its API base URL ("http://host:port", optionally with a path
	// prefix). Len >= 1. An id is printable ASCII without spaces
	// (0x21–0x7E); a peer URL has a host and no userinfo, query or
	// fragment: both go on the wire verbatim.
	Peers map[string]string
	// VNodes is the virtual nodes per member on the hash ring.
	// Zero means 64.
	VNodes int
}

func (c Config) validate() error {
	if len(c.Peers) == 0 {
		return fmt.Errorf("cluster: no peers")
	}
	if _, ok := c.Peers[c.NodeID]; !ok {
		return fmt.Errorf("cluster: node id %q is not a member of peers", c.NodeID)
	}
	for id, u := range c.Peers {
		if id == "" {
			return fmt.Errorf("cluster: empty peer id")
		}
		for i := 0; i < len(id); i++ {
			if id[i] < 0x21 || id[i] > 0x7e {
				return fmt.Errorf("cluster: peer id %q must be printable ASCII without spaces", id)
			}
		}
		if id == c.NodeID {
			continue
		}
		if _, err := parsePeerURL(u); err != nil {
			return fmt.Errorf("cluster: peer %q: %v", id, err)
		}
	}
	if c.VNodes < 1 {
		return fmt.Errorf("cluster: VNodes %d, must be >= 1", c.VNodes)
	}
	return nil
}

// parsePeerURL parses a peer base URL: http:// or https://, a host,
// and nothing that cannot go on the wire verbatim — no userinfo,
// query or fragment.
func parsePeerURL(raw string) (*url.URL, error) {
	if !strings.HasPrefix(raw, "http://") && !strings.HasPrefix(raw, "https://") {
		return nil, fmt.Errorf("url %q must start with http:// or https://", raw)
	}
	u, err := url.Parse(raw)
	switch {
	case err != nil:
		return nil, err
	case u.Host == "":
		return nil, fmt.Errorf("url %q has no host", raw)
	case u.User != nil, strings.ContainsAny(raw, "?#"):
		return nil, fmt.Errorf("url %q must not carry userinfo, a query or a fragment", raw)
	}
	return u, nil
}

// Cluster is one node's view of the fleet: the ring and the peers.
// Construct with New, release with Close.
type Cluster struct {
	cfg     Config
	ring    *Ring
	peers   map[string]*Peer // every member except self
	metrics *Metrics
	now     func() time.Time
}

// New builds the node's cluster view. The membership is static: the
// ring is a pure function of cfg.Peers and never changes at runtime.
func New(cfg Config) (*Cluster, error) {
	if cfg.VNodes == 0 {
		cfg.VNodes = 64
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	c := &Cluster{
		cfg:     cfg,
		ring:    NewRing(ids, cfg.VNodes),
		peers:   make(map[string]*Peer, len(ids)-1),
		metrics: newClusterMetrics(peerIDsExcept(ids, cfg.NodeID)),
		now:     time.Now, //lint:allow detrand wall-clock backoff gates and deadlines; the analytical engine stays clock-free
	}
	for _, id := range ids {
		if id != cfg.NodeID {
			c.peers[id] = newPeer(id, cfg.Peers[id])
		}
	}
	return c, nil
}

func peerIDsExcept(ids []string, self string) []string {
	out := make([]string, 0, len(ids)-1)
	for _, id := range ids {
		if id != self {
			out = append(out, id)
		}
	}
	return out
}

// Close closes every idle pooled connection (a pooled-but-unused conn
// would otherwise hold a peer's graceful drain open for several
// seconds). Forwarding stays usable, but no connection is pooled
// afterwards.
func (c *Cluster) Close() {
	for _, p := range c.peers {
		p.closeIdle()
	}
}

// NodeID returns this node's member id.
func (c *Cluster) NodeID() string { return c.cfg.NodeID }

// Nodes returns every member id, sorted.
func (c *Cluster) Nodes() []string { return c.ring.Nodes() }

// PeerURL returns the configured base URL for a member id.
func (c *Cluster) PeerURL(id string) string { return c.cfg.Peers[id] }

// Metrics exposes the counter set for the server's /metrics document.
func (c *Cluster) Metrics() *Metrics { return c.metrics }

// Owner returns the member owning key on the ring.
func (c *Cluster) Owner(key string) string { return c.ring.Owner(key) }

// ForwardResult is a proxied response: status, content type and body,
// copied verbatim so the client sees exactly the owner's bytes.
type ForwardResult struct {
	Status      int
	ContentType string
	ServedBy    string
	Body        []byte
}

// Forward proxies one request body to the owner peer and returns its
// response. Transport errors and 5xx answers are retried up to
// forwardAttempts times, marking the peer down behind the backoff
// gate; a peer already inside its gate fails fast with ErrPeerDown.
// Any returned error means the caller should compute locally.
func (c *Cluster) Forward(ctx context.Context, owner, path string, body []byte) (*ForwardResult, error) {
	p, ok := c.peers[owner]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown peer %q", owner)
	}
	pm := c.metrics.perPeer[owner]
	now := c.now()
	if p.down(now) {
		pm.skippedDown.Add(1)
		return nil, ErrPeerDown
	}
	c.metrics.forwards.Add(1)
	pm.forwards.Add(1)
	var lastErr error
	for attempt := 0; attempt < forwardAttempts; attempt++ {
		res, err := c.forwardOnce(ctx, p, path, body)
		if err == nil {
			pm.latency.Observe(c.now().Sub(now))
			return res, nil
		}
		lastErr = err
		pm.errors.Add(1)
		if ctx.Err() != nil {
			break // the client is gone; retrying serves nobody
		}
	}
	c.metrics.forwardErrors.Add(1)
	return nil, lastErr
}

// forwardOnce runs one proxy attempt with its own timeout.
func (c *Cluster) forwardOnce(ctx context.Context, p *Peer, path string, body []byte) (*ForwardResult, error) {
	res, err := c.exchange(ctx, p, request{method: "POST", path: path, from: c.cfg.NodeID, body: body})
	if err != nil {
		return nil, err
	}
	if res.status >= statusServerError {
		// The peer answered but cannot serve (500, 503 drain/overload):
		// local compute is the better fallback. The exchange itself
		// succeeded, so the connection-level health state resets.
		return nil, fmt.Errorf("cluster: peer %s answered %d", p.id, res.status)
	}
	return &ForwardResult{
		Status:      res.status,
		ContentType: res.contentType,
		ServedBy:    res.servedBy,
		Body:        res.body,
	}, nil
}

// exchange runs one exchange with p under forwardTimeout and records
// its outcome in p's health state: a transport failure arms the
// backoff gate, any answer clears it.
func (c *Cluster) exchange(ctx context.Context, p *Peer, req request) (response, error) {
	now := c.now()
	deadline := now.Add(forwardTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	res, err := p.do(ctx, now, deadline, req)
	if err != nil {
		p.reportFailure(c.now())
		return res, err
	}
	p.reportSuccess()
	return res, nil
}

// FetchJSON GETs path from a member (the /v1/cluster rollup path). It
// is single-attempt and respects the peer's backoff gate.
func (c *Cluster) FetchJSON(ctx context.Context, id, path string) ([]byte, error) {
	p, ok := c.peers[id]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown peer %q", id)
	}
	if p.down(c.now()) {
		return nil, ErrPeerDown
	}
	res, err := c.exchange(ctx, p, request{method: "GET", path: path})
	if err != nil {
		return nil, err
	}
	if res.status != statusOK {
		return nil, fmt.Errorf("cluster: peer %s %s answered %d", id, path, res.status)
	}
	return res.body, nil
}

// Snapshot renders the cluster counters for the /metrics document.
func (c *Cluster) Snapshot() Snapshot {
	s := Snapshot{
		NodeID:          c.cfg.NodeID,
		VNodes:          c.cfg.VNodes,
		Forwards:        c.metrics.forwards.Load(),
		ForwardErrors:   c.metrics.forwardErrors.Load(),
		Failovers:       c.metrics.failovers.Load(),
		ForwardedServed: c.metrics.forwardedServed.Load(),
		Peers:           make(map[string]PeerSnapshot, len(c.peers)),
	}
	now := c.now()
	for id, p := range c.peers {
		pm := c.metrics.perPeer[id]
		s.Peers[id] = PeerSnapshot{
			Addr:        p.baseURL,
			Healthy:     p.healthy(now),
			Forwards:    pm.forwards.Load(),
			Errors:      pm.errors.Load(),
			SkippedDown: pm.skippedDown.Load(),
			Summary:     pm.latency.Snapshot(),
		}
	}
	return s
}
