package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xbar/internal/cluster"
	"xbar/internal/httpwire"
)

// The API listener's serve loop. Each accepted connection gets one
// goroutine that reads a request into a pooled buffer, runs s.mux on
// it and writes the response in one Write: no header map on the read
// side, no background read for a request that never waits for a solve
// slot (one that does starts the hang-up watcher, watch), no
// per-request context beyond instrument's timeout. It
// reads a strict subset of HTTP/1.1, decided by protocol features
// alone (readHead); a connection whose next request falls outside it
// is handed, with every byte it has sent since the last response, to
// a net/http server that then keeps it (handoffListener). Every route,
// every handler and every error document are the mux's, on either
// path.

// The API listener's timeouts, shared with the net/http fallback.
// Variables so that tests can lower them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

const (
	// headBufBytes sizes a connection's read buffer; a request whose
	// line and header block do not fit is handed off.
	headBufBytes = 4 << 10
	// discardBodyBytes is the largest unread request body the loop
	// reads and drops to keep a connection, as net/http does.
	discardBodyBytes = 256 << 10
	// keepOutBytes bounds the response buffers a connection keeps
	// between requests.
	keepOutBytes = 64 << 10
	// newConnGrace is how long Shutdown leaves a connection that has
	// not sent its first request (net/http's grace for StateNew).
	newConnGrace = 5 * time.Second
	// lingerDelay is how long lingerClose waits (net/http's
	// rstAvoidanceDelay).
	lingerDelay = 500 * time.Millisecond
)

// Connection states, for Shutdown.
const (
	connNew    int32 = iota // accepted, no request yet
	connIdle                // between requests
	connActive              // reading, serving or writing a request
	connClosed              // closed by Shutdown
)

// errHandoff reports a request outside the loop's subset.
var errHandoff = errors.New("server: request outside the serve loop's subset")

var headBufs = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, headBufBytes) }}

// head is one request's line and the headers the loop reads.
type head struct {
	method, path, host []byte
	length             int64 // Content-Length, 0 when absent
	closing            bool  // Connection: close
	forwarded          []byte
	size               int // bytes of the request line and header block
}

// headEnd returns the length of the header block at the start of b,
// through the empty line that ends it, or -1 when b does not hold one
// yet. A bare LF ends lines here so that such a request is handed off
// at once instead of waiting for a CRLF that never comes.
func headEnd(b []byte) int {
	for i := 0; ; { // i starts a line
		switch {
		case i < len(b) && b[i] == '\n':
			return i + 1
		case i+1 < len(b) && b[i] == '\r' && b[i+1] == '\n':
			return i + 2
		}
		j := bytes.IndexByte(b[i:], '\n')
		if j < 0 {
			return -1
		}
		i += j + 1
	}
}

// parseHead parses a complete header block (headEnd's prefix). It
// accepts an origin-form request line of a token method, a clean
// path of letters, digits and "-._~/", and HTTP/1.1; then exactly one
// Host; at most one Content-Length of digits; no Transfer-Encoding,
// Expect or Upgrade. ok is false for anything else, which
// http.ReadRequest either reads differently or rejects.
func parseHead(block []byte) (h head, ok bool) {
	h.size = len(block)
	line, rest, ok := httpwire.CutLine(block)
	if !ok {
		return h, false
	}
	sp := 0
	for sp < len(line) && httpwire.IsToken(line[sp]) {
		sp++
	}
	if sp == 0 || sp == len(line) || line[sp] != ' ' {
		return h, false
	}
	h.method, line = line[:sp], line[sp+1:]
	const proto = " HTTP/1.1"
	if len(line) <= len(proto) || string(line[len(line)-len(proto):]) != proto {
		return h, false
	}
	h.path = line[:len(line)-len(proto)]
	if !cleanPath(h.path) {
		return h, false
	}
	length, hosts := -1, 0
	for {
		line, rest, ok = httpwire.CutLine(rest)
		if !ok {
			return h, false
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := httpwire.SplitHeader(line)
		if !ok {
			return h, false
		}
		switch {
		case httpwire.EqualFold(name, "Host"):
			hosts++
			if hosts > 1 || !validHost(value) {
				return h, false
			}
			h.host = value
		case httpwire.EqualFold(name, "Content-Length"):
			if length >= 0 || len(value) == 0 || len(value) > 18 {
				return h, false
			}
			length = 0
			for _, c := range value {
				if c < '0' || c > '9' {
					return h, false
				}
				length = 10*length + int(c-'0')
			}
		case httpwire.EqualFold(name, "Transfer-Encoding"),
			httpwire.EqualFold(name, "Expect"),
			httpwire.EqualFold(name, "Upgrade"):
			return h, false
		case httpwire.EqualFold(name, "Connection"):
			h.closing = h.closing || httpwire.HasToken(value, "close")
		case httpwire.EqualFold(name, cluster.HeaderForwarded):
			if h.forwarded == nil {
				h.forwarded = value
			}
		}
	}
	if hosts == 0 {
		return h, false
	}
	h.length = int64(max(length, 0))
	return h, true
}

// cleanPath reports a path of letters, digits and "-._~/" that
// ServeMux would route as it stands: it starts with "/", has no empty
// segment but a trailing one, and no "." or ".." segment.
func cleanPath(p []byte) bool {
	if len(p) == 0 || p[0] != '/' {
		return false
	}
	seg := 0 // start of the current segment
	for i := 1; i <= len(p); i++ {
		if i < len(p) && p[i] != '/' {
			if c := p[i]; !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
				c == '-' || c == '.' || c == '_' || c == '~') {
				return false
			}
			continue
		}
		s := p[seg+1 : i]
		if len(s) == 0 && i < len(p) || string(s) == "." || string(s) == ".." {
			return false
		}
		seg = i
	}
	return true
}

// validHost reports a non-empty Host of letters, digits and
// "-._:[]".
func validHost(v []byte) bool {
	for _, c := range v {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '-' || c == '.' || c == '_' || c == ':' || c == '[' || c == ']') {
			return false
		}
	}
	return len(v) > 0
}

// serveConn is one connection on the serve loop.
type serveConn struct {
	s     *Server
	nc    net.Conn
	br    *bufio.Reader
	state atomic.Int32

	accepted time.Time
	deadline time.Time // the read deadline set on nc; zero for none
	idleEnd  time.Time // when the wait for the next request times out

	served bool // a request has been answered

	// The hang-up watcher (watch): running while watching, and it
	// sends on watchDone once as it exits.
	watching  bool
	watchDone chan struct{}

	// Interned request strings: a connection's requests repeat them.
	method, path, host string
	remote             string

	hdr     http.Header // response headers, cleared per request
	body    []byte      // the response body
	out     []byte      // the whole response
	dateSec int64
	date    []byte
}

// exchange is one request's allocation: the request the mux sees,
// its URL and body, and the response writer.
type exchange struct {
	req  http.Request
	url  url.URL
	body bodyReader
	w    responseWriter
}

// bodyReader reads a Content-Length body off the connection.
type bodyReader struct {
	br   *bufio.Reader
	left int64 // bytes not yet read
	read int64 // bytes read
	err  error // a read error other than the body's end
}

func (b *bodyReader) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	if b.left == 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.br.Read(p)
	b.left -= int64(n)
	b.read += int64(n)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		b.err = err
	}
	return n, err
}

func (b *bodyReader) Close() error { return nil }

// responseWriter buffers one response for serveConn.finish.
type responseWriter struct {
	c    *serveConn
	body *bodyReader // the request's body
	code int
}

func (w *responseWriter) Header() http.Header { return w.c.hdr }

func (w *responseWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *responseWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.c.body = append(w.c.body, p...)
	return len(p), nil
}

// serveLoop accepts on s.ln until Shutdown (returning
// http.ErrServerClosed) or a listener failure.
func (s *Server) serveLoop() error {
	var backoff time.Duration
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.shuttingDown.Load() {
				return http.ErrServerClosed
			}
			// net/http's test: out of file descriptors is temporary.
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() {
				backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		c := &serveConn{s: s, nc: nc, accepted: time.Now(), hdr: make(http.Header)} //lint:allow detrand connection timeouts run on the wall clock
		if !s.track(c) {
			_ = nc.Close() //lint:allow errcheck refused during shutdown
			return http.ErrServerClosed
		}
		go c.serve()
	}
}

// track registers c for Shutdown; it reports false once Shutdown has
// begun.
func (s *Server) track(c *serveConn) bool {
	s.connsMu.Lock()
	defer s.connsMu.Unlock()
	if s.shuttingDown.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c *serveConn) {
	s.connsMu.Lock()
	delete(s.conns, c)
	s.connsMu.Unlock()
}

// closeIdle closes every connection waiting between requests, and
// every one that has sent nothing for newConnGrace, and reports
// whether none is left.
func (s *Server) closeIdle() bool {
	s.connsMu.Lock()
	defer s.connsMu.Unlock()
	for c := range s.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) ||
			time.Since(c.accepted) >= newConnGrace && c.state.CompareAndSwap(connNew, connClosed) {
			_ = c.nc.Close() //lint:allow errcheck the connection is idle; nothing is left to flush
			delete(s.conns, c)
		}
	}
	return len(s.conns) == 0
}

// drainLoop is Shutdown's half for the serve loop: close the
// listener, then close idle connections as they turn idle until none
// is left or ctx ends. Every request in flight closes its connection
// after its response.
func (s *Server) drainLoop(ctx context.Context) error {
	s.shuttingDown.Store(true)
	if err := s.ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	poll := time.Millisecond
	timer := time.NewTimer(poll)
	defer timer.Stop()
	for !s.closeIdle() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			poll = min(2*poll, 500*time.Millisecond)
			timer.Reset(poll)
		}
	}
	return nil
}

// serve runs the connection until it closes or is handed off.
func (c *serveConn) serve() {
	c.br = headBufs.Get().(*bufio.Reader)
	c.br.Reset(c.nc)
	c.remote = c.nc.RemoteAddr().String()
	c.idleEnd = c.accepted.Add(readHeaderTimeout)
	handedOff := false
	defer func() {
		if p := recover(); p != nil {
			c.s.cfg.logf("panic serving connection from %s: %v", c.remote, p)
		}
		if !handedOff {
			_ = c.stopWatch() //lint:allow errcheck the connection closes next; a panic may have left the watcher running
			_ = c.nc.Close()  //lint:allow errcheck the connection is done; a close error changes nothing
			c.br.Reset(nil)
			headBufs.Put(c.br)
		}
		c.s.untrack(c)
	}()
	for {
		h, err := c.readHead()
		if err == errHandoff {
			handedOff = c.handoff()
			return
		}
		if err != nil || !c.serveOne(&h) {
			return
		}
	}
}

// setDeadline sets nc's read deadline when it differs from the one
// set.
func (c *serveConn) setDeadline(t time.Time) error {
	if t.Equal(c.deadline) {
		return nil
	}
	c.deadline = t
	return c.nc.SetReadDeadline(t)
}

// fill reads more bytes into br, at least need of them buffered,
// until until. The deadline set on nc is moved only when it falls
// after until (or there is none): one that falls before until is left
// to expire and then re-armed, so a connection that keeps sending
// pays for no deadline change per request.
func (c *serveConn) fill(need int, until time.Time) error {
	if c.deadline.IsZero() || c.deadline.After(until) {
		if err := c.setDeadline(until); err != nil {
			return err
		}
	}
	for {
		_, err := c.br.Peek(need)
		var ne net.Error
		if err == nil || !errors.As(err, &ne) || !ne.Timeout() {
			return err
		}
		if !time.Now().Before(until) { //lint:allow detrand connection timeouts run on the wall clock
			return err
		}
		if err := c.setDeadline(until); err != nil {
			return err
		}
	}
}

// readHead waits for the next request's header block and parses it.
// It returns errHandoff, with no byte of the request consumed, for a
// request outside the subset, and any other error when the connection
// is to close without a response: a clean end between requests, a
// timeout, or a close by Shutdown.
func (c *serveConn) readHead() (head, error) {
	if c.br.Buffered() == 0 {
		from := connNew
		if c.served {
			from = connIdle
			c.state.Store(connIdle)
		}
		if err := c.fill(1, c.idleEnd); err != nil {
			return head{}, err
		}
		if !c.state.CompareAndSwap(from, connActive) {
			return head{}, http.ErrServerClosed
		}
	}
	var headerEnd time.Time
	for {
		buf, _ := c.br.Peek(c.br.Buffered())
		if n := headEnd(buf); n >= 0 {
			h, ok := parseHead(buf[:n])
			if !ok {
				return head{}, errHandoff
			}
			return h, nil
		}
		if len(buf) == c.br.Size() {
			return head{}, errHandoff
		}
		if headerEnd.IsZero() {
			headerEnd = time.Now().Add(readHeaderTimeout) //lint:allow detrand connection timeouts run on the wall clock
		}
		if err := c.fill(len(buf)+1, headerEnd); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() || errors.Is(err, net.ErrClosed) {
				return head{}, err
			}
			// The client stopped mid-request: net/http answers that.
			return head{}, errHandoff
		}
	}
}

// serveOne serves one parsed request and reports whether the
// connection stays open for the next.
func (c *serveConn) serveOne(h *head) bool {
	x := &exchange{}
	x.url.Path = intern(&c.path, h.path)
	x.body = bodyReader{br: c.br, left: h.length}
	x.req = http.Request{
		Method:        intern(&c.method, h.method),
		URL:           &x.url,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		ContentLength: h.length,
		Body:          &x.body,
		Host:          intern(&c.host, h.host),
		RemoteAddr:    c.remote,
		RequestURI:    x.url.Path,
		Close:         h.closing,
	}
	if h.length == 0 {
		x.req.Body = http.NoBody
	}
	if h.forwarded != nil {
		x.req.Header = http.Header{cluster.HeaderForwarded: {string(h.forwarded)}}
	}
	x.w = responseWriter{c: c, body: &x.body}
	c.br.Discard(h.size) //lint:allow errcheck the block is buffered; Discard cannot fall short
	if int64(c.br.Buffered()) < h.length {
		// net/http sets no deadline on a body.
		if err := c.setDeadline(time.Time{}); err != nil {
			return false
		}
	}
	c.s.mux.ServeHTTP(&x.w, &x.req)
	c.served = true
	keep := c.finish(x, h)
	if err := c.stopWatch(); err != nil {
		keep = false
	}
	if !keep && x.body.left > 0 && x.body.err == nil {
		c.lingerClose()
	}
	clear(c.hdr)
	c.body = c.body[:0]
	if cap(c.out) > keepOutBytes {
		c.out, c.body = nil, nil
	}
	return keep
}

// intern returns *last when b spells it, else b as a new *last.
func intern(last *string, b []byte) string {
	if string(b) != *last {
		*last = string(b)
	}
	return *last
}

// finish settles the connection's fate as net/http would, then writes
// the status line, the headers and the body in one Write. It reports
// whether the connection stays open.
func (c *serveConn) finish(x *exchange, h *head) bool {
	body := &x.body
	keep := !h.closing && !c.s.shuttingDown.Load() && body.err == nil &&
		body.read <= c.s.cfg.MaxBodyBytes // past the cap, MaxBytesReader answered 413
	if keep && body.left > 0 {
		// The handler left part of the body unread: drop a small rest
		// to keep the connection, close on a large one.
		if body.left >= discardBodyBytes {
			keep = false
		} else if _, err := io.Copy(io.Discard, body); err != nil {
			keep = false
		}
	}
	code := x.w.code
	if code == 0 {
		code = http.StatusOK
	}
	b := append(c.out[:0], "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(code)...)
	b = append(b, "\r\n"...)
	var stack [8]string
	keys := stack[:0]
	for k := range c.hdr {
		switch k {
		case "Content-Length", "Connection", "Date", "Transfer-Encoding":
			continue
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		for _, v := range c.hdr[k] {
			b = append(b, k...)
			b = append(b, ": "...)
			b = append(b, v...)
			b = append(b, "\r\n"...)
		}
	}
	if !keep {
		b = append(b, "Connection: close\r\n"...)
	}
	now := time.Now() //lint:allow detrand the Date header and connection timeouts run on the wall clock
	b = append(b, "Date: "...)
	b = append(b, c.httpDate(now)...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(c.body)), 10)
	b = append(b, "\r\n\r\n"...)
	if x.req.Method != http.MethodHead {
		b = append(b, c.body...)
	}
	c.out = b
	if _, err := c.nc.Write(b); err != nil {
		return false
	}
	if keep {
		c.idleEnd = now.Add(idleTimeout)
	}
	return keep
}

// aLongTimeAgo is a read deadline in the past: setting it wakes a
// blocked read at once.
var aLongTimeAgo = time.Unix(1, 0)

// watch starts the connection's hang-up watcher, once per request and
// only for a request whose body has been read whole (post reads it
// before any solve-slot wait). The watcher is a goroutine blocked in
// c.br.Peek(1) until serveOne stops it after the response is written:
// the handler goroutine does not touch c.br meanwhile. When the
// client hangs up (EOF) or resets the connection, it calls cancel,
// instrument's cancel for the request, so a wait for a solve slot
// ends at once instead of at RequestTimeout; when pipelined bytes
// arrive it exits and leaves them buffered for the next readHead.
//
// Its start and its wakeup at stopWatch are also the scheduler events
// a fill needs: each lets the scheduler wake a thread on an idle
// core, which then looks for work while the client's next request is
// on its way. Without one, a 2-worker closed loop of lattice fills
// ran 7% slower than on net/http (docs/PERFORMANCE.md §17); a hit,
// a forward or an asymptotic answer starts none.
func (w *responseWriter) watch(cancel context.CancelFunc) {
	c := w.c
	if c.watching || w.body.left > 0 {
		return
	}
	// The header or idle deadline must not end the watch; stopWatch
	// sets it again.
	if !c.deadline.IsZero() {
		if err := c.nc.SetReadDeadline(time.Time{}); err != nil {
			return
		}
	}
	if c.watchDone == nil {
		c.watchDone = make(chan struct{}, 1)
	}
	c.watching = true
	go c.watchHangUp(cancel)
}

// watchHangUp is the watcher's goroutine (watch).
func (c *serveConn) watchHangUp(cancel context.CancelFunc) {
	if _, err := c.br.Peek(1); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		cancel() // EOF or a reset: the client is gone
	}
	c.watchDone <- struct{}{}
}

// stopWatch stops the hang-up watcher, when one runs: a read deadline
// in the past wakes its Peek, and once it has exited the connection's
// own deadline, c.deadline, is set again.
func (c *serveConn) stopWatch() error {
	if !c.watching {
		return nil
	}
	c.watching = false
	err := c.nc.SetReadDeadline(aLongTimeAgo)
	<-c.watchDone
	return errors.Join(err, c.nc.SetReadDeadline(c.deadline))
}

// lingerClose half-closes a connection whose client may still be
// sending the body the handler left unread, and waits before serve
// closes it (net/http's closeWriteAndWait): a close with unread bytes
// would reset the connection and could drop the response from the
// client's receive buffer.
func (c *serveConn) lingerClose() {
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite() //lint:allow errcheck the connection closes next either way
		time.Sleep(lingerDelay)
	}
}

// httpDate returns the Date header value, formatted once a second.
func (c *serveConn) httpDate(now time.Time) []byte {
	if sec := now.Unix(); sec != c.dateSec || c.date == nil {
		c.dateSec = sec
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	return c.date
}

// handoff passes the connection, with every byte it has sent since
// the last response still unread, to the net/http server. It reports
// false when that server is shut down and the connection was left to
// serve's close.
func (c *serveConn) handoff() bool {
	if err := c.setDeadline(time.Time{}); err != nil {
		return false
	}
	return c.s.handoff.deliver(&handoffConn{Conn: c.nc, br: c.br})
}

// handoffConn replays the bytes the loop buffered, then reads the
// connection.
type handoffConn struct {
	net.Conn
	br *bufio.Reader
}

func (hc *handoffConn) Read(p []byte) (int, error) { return hc.br.Read(p) }

// handoffListener is the net/http server's listener: the serve loop's
// handed-off connections, in order.
type handoffListener struct {
	addr  net.Addr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newHandoffListener(addr net.Addr) *handoffListener {
	return &handoffListener{addr: addr, conns: make(chan net.Conn), done: make(chan struct{})}
}

// deliver queues nc for Accept; it reports false once the listener is
// closed.
func (l *handoffListener) deliver(nc net.Conn) bool {
	select {
	case l.conns <- nc:
		return true
	case <-l.done:
		return false
	}
}

func (l *handoffListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.conns:
		return nc, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *handoffListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *handoffListener) Addr() net.Addr { return l.addr }
