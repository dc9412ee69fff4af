package cluster

import (
	"context"
	"crypto/tls"
	"net"
	"strings"
	"sync"
	"time"
)

// Backoff schedule for a peer that failed at the transport level: the
// first failure gates reconnects for reconnectBase, doubling per
// consecutive failure up to reconnectCap. While gated, Forward fails
// fast (the caller falls over to local compute) instead of paying a
// dial timeout per request.
const (
	reconnectBase = 250 * time.Millisecond
	reconnectCap  = 15 * time.Second
)

// Peer is one remote cluster member: its address, its pool of
// keep-alive connections (conn.go), and its health state. Health is
// request-driven — there is no prober goroutine; the first request
// after the backoff window expires is the reconnect probe.
type Peer struct {
	id      string
	baseURL string
	host    string      // the URL's host[:port], sent as Host
	addr    string      // host:port to dial
	prefix  string      // the URL's path, without a trailing slash
	tls     *tls.Config // nil for an http:// peer
	dial    func(context.Context) (net.Conn, error)

	mu        sync.Mutex
	fails     int       // consecutive transport failures
	downUntil time.Time // zero when healthy

	poolMu sync.Mutex
	idle   []*peerConn // oldest first
	closed bool        // Close ran: connections are no longer pooled
}

// newPeer builds the peer for a URL that Config.validate accepted.
func newPeer(id, rawURL string) *Peer {
	u, _ := parsePeerURL(rawURL) // validated by Config.validate
	p := &Peer{
		id:      id,
		baseURL: strings.TrimRight(rawURL, "/"),
		host:    u.Host,
		prefix:  strings.TrimRight(u.EscapedPath(), "/"),
	}
	port := u.Port()
	switch {
	case port != "":
	case u.Scheme == "https":
		port = "443"
	default:
		port = "80"
	}
	p.addr = net.JoinHostPort(u.Hostname(), port)
	if u.Scheme == "https" {
		p.tls = &tls.Config{ServerName: u.Hostname()}
	}
	p.dial = p.dialPeer
	return p
}

// healthy reports whether the peer is currently forwardable: either it
// has no recorded failure, or its backoff window has expired (in which
// case the next request doubles as the reconnect probe).
func (p *Peer) healthy(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.downUntil.IsZero() || !now.Before(p.downUntil)
}

// reportSuccess clears the failure state after a completed exchange.
func (p *Peer) reportSuccess() {
	p.mu.Lock()
	p.fails = 0
	p.downUntil = time.Time{}
	p.mu.Unlock()
}

// reportFailure records a transport-level failure and extends the
// backoff gate exponentially.
func (p *Peer) reportFailure(now time.Time) {
	p.mu.Lock()
	p.fails++
	backoff := reconnectBase << min(p.fails-1, 10)
	if backoff > reconnectCap {
		backoff = reconnectCap
	}
	p.downUntil = now.Add(backoff)
	p.mu.Unlock()
}

// down reports whether the peer is inside its backoff window.
func (p *Peer) down(now time.Time) bool { return !p.healthy(now) }
