package cluster

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net"
	"strconv"
	"time"

	"xbar/internal/httpwire"
)

// The forward hop's HTTP/1.1 client. Each peer keeps a LIFO pool of
// keep-alive connections; the calling goroutine writes a request in one
// Write and reads the answer from the connection's bufio.Reader, so an
// exchange runs on the caller's goroutine alone, with no per-connection
// reader or writer goroutine and no header map. The client speaks only
// to xbard peers and reads the subset of HTTP/1.1 that readResponse
// documents; FuzzPeerResponse pins that subset inside what net/http
// accepts.

// Pool and framing bounds.
const (
	maxIdlePerPeer = 16               // idle keep-alive connections kept per peer
	idleTimeout    = 90 * time.Second // an idle connection this old is closed, never reused
	dialTimeout    = 2 * time.Second
	maxHeaderBytes = 32 << 10 // status line plus header block
	maxBodyBytes   = 64 << 20 // largest response body accepted
)

// errStale reports a pooled connection that failed before the first
// response byte: the peer closed it while it sat idle.
var errStale = errors.New("cluster: stale pooled connection")

// aLongTimeAgo is the deadline that interrupts a blocked read or write.
var aLongTimeAgo = time.Unix(1, 0)

// peerConn is one connection to a peer. It is owned by one exchange
// at a time, or by the pool.
type peerConn struct {
	nc        net.Conn
	br        *bufio.Reader
	wbuf      []byte    // the request buffer, reused across exchanges
	idleSince time.Time // when the connection entered the pool
	interrupt func()    // context.AfterFunc's callback, built once
}

func newPeerConn(nc net.Conn) *peerConn {
	pc := &peerConn{nc: nc, br: bufio.NewReader(nc)}
	pc.interrupt = func() {
		_ = nc.SetDeadline(aLongTimeAgo) //lint:allow errcheck a closed connection needs no interrupt
	}
	return pc
}

func (pc *peerConn) close() {
	_ = pc.nc.Close() //lint:allow errcheck the connection is discarded; nothing was left to flush
}

// response is one peer answer.
type response struct {
	status      int
	contentType string
	servedBy    string // X-Xbar-Node
	body        []byte
	keepAlive   bool // the framing and Connection header allow reuse
}

// request is one exchange's request line and headers: method on the
// peer's base path plus path. A POST carries body as JSON and names
// this node in HeaderForwarded.
type request struct {
	method, path, from string
	body               []byte
}

// do runs one exchange with p, on a pooled connection when there is
// one. A pooled connection that fails before the first response byte
// was closed by the peer while idle: it is closed, with every idle
// connection pooled before it, and the request is sent once more on a
// fresh connection. The solve endpoints are pure, so the resend is
// safe, and it is not a peer failure. The exchange ends at deadline
// or when ctx is done, whichever comes first.
func (p *Peer) do(ctx context.Context, now, deadline time.Time, req request) (response, error) {
	if pc := p.get(now); pc != nil {
		res, err := p.exchange(ctx, now, deadline, pc, true, req)
		if !errors.Is(err, errStale) {
			return res, err
		}
		p.dropIdle(pc.idleSince)
	}
	dctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	nc, err := p.dial(dctx)
	if err != nil {
		return response{}, err
	}
	return p.exchange(ctx, now, deadline, newPeerConn(nc), false, req)
}

// exchange writes req on pc and reads the answer. pc goes back to the
// pool only after a clean exchange that allows reuse and left no
// unread byte; otherwise it is closed.
func (p *Peer) exchange(ctx context.Context, now, deadline time.Time, pc *peerConn, pooled bool, req request) (response, error) {
	if err := pc.nc.SetDeadline(deadline); err != nil {
		pc.close()
		return response{}, err
	}
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, pc.interrupt)
	}
	res, answered, err := pc.roundTrip(req, p)
	if !stop() {
		// Cancelled during the exchange: the deadline was pulled in
		// under it, so the connection is in no state to reuse.
		pc.close()
		if err == nil {
			return res, nil
		}
		return response{}, ctx.Err()
	}
	if err != nil {
		pc.close()
		var ne net.Error
		if pooled && !answered && !(errors.As(err, &ne) && ne.Timeout()) {
			return response{}, errStale
		}
		return response{}, err
	}
	if res.keepAlive && pc.br.Buffered() == 0 {
		p.put(pc, now)
	} else {
		pc.close()
	}
	return res, nil
}

// roundTrip writes req in one Write and reads the response. answered
// reports whether any response byte arrived.
func (pc *peerConn) roundTrip(req request, p *Peer) (res response, answered bool, err error) {
	b := append(pc.wbuf[:0], req.method...)
	b = append(b, ' ')
	b = append(b, p.prefix...)
	b = append(b, req.path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, p.host...)
	if req.method == "POST" {
		b = append(b, "\r\nContent-Type: application/json\r\n"+HeaderForwarded+": "...)
		b = append(b, req.from...)
		b = append(b, "\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(req.body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, req.body...)
	if cap(b) <= 64<<10 {
		pc.wbuf = b // a large request's buffer is not kept
	}
	if _, err := pc.nc.Write(b); err != nil {
		return response{}, false, err
	}
	if _, err := pc.br.Peek(1); err != nil {
		return response{}, false, err
	}
	res, err = readResponse(pc.br, p.id)
	return res, true, err
}

// readResponse reads one response from br. It accepts a subset of
// what net/http's ReadResponse accepts: an HTTP/1.1 status line with a
// three-digit status from 200 to 599 other than 204 and 304; CRLF line
// ends; header names of token bytes and values of printable ASCII and
// tabs, with no line folding and the whole block under maxHeaderBytes;
// at most one Content-Length, never beside Transfer-Encoding; a
// Transfer-Encoding of exactly "chunked", with bare hex chunk sizes and
// no trailer; no Trailer header. It reads Content-Type, X-Xbar-Node
// (interned when it equals node), Connection and the body: by length,
// by chunks, or to EOF (which rules out reuse). Anything else is
// httpwire.ErrMalformed; like any transport error it fails the attempt,
// and the caller falls over to local compute.
func readResponse(br *bufio.Reader, node string) (response, error) {
	var res response
	budget := maxHeaderBytes
	line, err := httpwire.ReadLine(br, &budget)
	if err != nil {
		return res, err
	}
	const proto = "HTTP/1.1 "
	if len(line) < len(proto)+3 || string(line[:len(proto)]) != proto ||
		len(line) > len(proto)+3 && line[len(proto)+3] != ' ' {
		return res, httpwire.ErrMalformed
	}
	for _, c := range line[len(proto) : len(proto)+3] {
		if c < '0' || c > '9' {
			return res, httpwire.ErrMalformed
		}
		res.status = 10*res.status + int(c-'0')
	}
	if res.status < 200 || res.status > 599 || res.status == 204 || res.status == 304 {
		return res, httpwire.ErrMalformed
	}
	length := -1
	var chunked, closing, sawType, sawNode bool
	for {
		line, err := httpwire.ReadLine(br, &budget)
		if err != nil {
			return res, err
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := httpwire.SplitHeader(line)
		if !ok {
			return res, httpwire.ErrMalformed
		}
		switch {
		case httpwire.EqualFold(name, "Content-Length"):
			n, err := strconv.ParseUint(string(value), 10, 63)
			if length >= 0 || err != nil || n > maxBodyBytes {
				return res, httpwire.ErrMalformed
			}
			length = int(n)
		case httpwire.EqualFold(name, "Transfer-Encoding"):
			if chunked || !httpwire.EqualFold(value, "chunked") {
				return res, httpwire.ErrMalformed
			}
			chunked = true
		case httpwire.EqualFold(name, "Trailer"):
			return res, httpwire.ErrMalformed
		case httpwire.EqualFold(name, "Connection"):
			closing = closing || httpwire.HasToken(value, "close")
		case httpwire.EqualFold(name, "Content-Type"):
			if !sawType {
				res.contentType, sawType = intern(value, "application/json"), true
			}
		case httpwire.EqualFold(name, HeaderNode):
			if !sawNode {
				res.servedBy, sawNode = intern(value, node), true
			}
		}
	}
	switch {
	case chunked && length >= 0:
		return res, httpwire.ErrMalformed
	case chunked:
		res.body, err = readChunked(br)
	case length >= 0:
		res.body = make([]byte, length)
		_, err = io.ReadFull(br, res.body)
	default:
		res.body, err = io.ReadAll(io.LimitReader(br, maxBodyBytes+1))
		if err == nil && len(res.body) > maxBodyBytes {
			err = httpwire.ErrMalformed
		}
		closing = true
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	res.keepAlive = !closing
	return res, err
}

// readChunked reads a chunked body whose size lines are one to eight
// hex digits, ending at the zero-size chunk and its empty trailer.
func readChunked(br *bufio.Reader) ([]byte, error) {
	var body []byte
	var crlf [2]byte
	budget := maxBodyBytes // bounds the size lines; the sizes bound the data
	for {
		line, err := httpwire.ReadLine(br, &budget)
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseUint(string(line), 16, 32)
		if len(line) > 8 || err != nil || int(n) > maxBodyBytes-len(body) {
			return nil, httpwire.ErrMalformed
		}
		size := int(n)
		if size > 0 {
			n := len(body)
			body = append(body, make([]byte, size)...)
			if _, err := io.ReadFull(br, body[n:]); err != nil {
				return nil, err
			}
		}
		if _, err := io.ReadFull(br, crlf[:]); err != nil {
			return nil, err
		}
		if crlf != [2]byte{'\r', '\n'} {
			return nil, httpwire.ErrMalformed
		}
		if size == 0 {
			return body, nil
		}
	}
}

// intern returns common when b spells it, sparing the allocation.
func intern(b []byte, common string) string {
	if string(b) == common {
		return common
	}
	return string(b)
}

// dialPeer is a peer's default dial: TCP to the peer's address, then
// TLS for an https:// peer, with the URL host as ServerName and
// HTTP/1.1 as the only protocol.
func (p *Peer) dialPeer(ctx context.Context) (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout, KeepAlive: 30 * time.Second}
	nc, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil || p.tls == nil {
		return nc, err
	}
	tc := tls.Client(nc, p.tls)
	if err := tc.HandshakeContext(ctx); err != nil {
		_ = nc.Close() //lint:allow errcheck the handshake error is the one to report
		return nil, err
	}
	return tc, nil
}

// get pops the most recently pooled connection, or returns nil. When
// that one has idled past idleTimeout, so has every other: all are
// closed.
func (p *Peer) get(now time.Time) *peerConn {
	p.poolMu.Lock()
	n := len(p.idle)
	if n == 0 {
		p.poolMu.Unlock()
		return nil
	}
	pc := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	p.poolMu.Unlock()
	if now.Sub(pc.idleSince) >= idleTimeout {
		pc.close()
		p.dropIdle(pc.idleSince)
		return nil
	}
	return pc
}

// put pools pc, or closes it when the pool is full or closed.
func (p *Peer) put(pc *peerConn, now time.Time) {
	p.poolMu.Lock()
	if p.closed || len(p.idle) >= maxIdlePerPeer {
		p.poolMu.Unlock()
		pc.close()
		return
	}
	pc.idleSince = now
	p.idle = append(p.idle, pc)
	p.poolMu.Unlock()
}

// dropIdle closes every idle connection pooled at or before t.
func (p *Peer) dropIdle(t time.Time) {
	p.poolMu.Lock()
	defer p.poolMu.Unlock()
	keep := p.idle[:0]
	for _, pc := range p.idle {
		if pc.idleSince.After(t) {
			keep = append(keep, pc)
		} else {
			pc.close()
		}
	}
	clear(p.idle[len(keep):])
	p.idle = keep
}

// closeIdle closes every idle connection; a connection an exchange
// returns afterwards is closed, not pooled.
func (p *Peer) closeIdle() {
	p.poolMu.Lock()
	p.closed = true
	for _, pc := range p.idle {
		pc.close()
	}
	clear(p.idle)
	p.idle = p.idle[:0]
	p.poolMu.Unlock()
}
