package cluster

import (
	"bufio"
	"bytes"
	"context"
	"crypto/x509"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// idleConns reports how many connections sit in p's pool.
func idleConns(p *Peer) int {
	p.poolMu.Lock()
	defer p.poolMu.Unlock()
	return len(p.idle)
}

// echoHandler answers every forward with a small JSON document.
var echoHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderNode, "peer")
	io.WriteString(w, `{"ok":true}`) //lint:allow errcheck test response write
})

func TestForwardKeepsPathPrefix(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.URL.Path + " " + r.Header.Get(HeaderForwarded) + " " + r.Header.Get("Content-Type"))
	}))
	defer ts.Close()
	c, err := New(Config{NodeID: "self", Peers: map[string]string{"self": "http://unused", "peer": ts.URL + "/pre/"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Forward(context.Background(), "peer", "/v1/blocking", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if g := got.Load(); g != "/pre/v1/blocking self application/json" {
		t.Fatalf("peer saw %q", g)
	}
}

// TestForwardHTTPS forwards to a TLS peer, checking the certificate
// against the URL host.
func TestForwardHTTPS(t *testing.T) {
	ts := httptest.NewTLSServer(echoHandler)
	defer ts.Close()
	c, err := New(Config{NodeID: "self", Peers: map[string]string{"self": "https://unused", "peer": ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Forward(context.Background(), "peer", "/v1/blocking", nil); err == nil {
		t.Fatal("forward trusted the test server's self-signed certificate")
	}
	c.peers["peer"].reportSuccess()
	roots := x509.NewCertPool()
	roots.AddCert(ts.Certificate())
	c.peers["peer"].tls.RootCAs = roots
	for i := 0; i < 2; i++ {
		res, err := c.Forward(context.Background(), "peer", "/v1/blocking", nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(res.Body) != `{"ok":true}` || res.ServedBy != "peer" {
			t.Fatalf("forward result %+v", res)
		}
	}
	if n := idleConns(c.peers["peer"]); n != 1 {
		t.Fatalf("%d idle TLS connections after two forwards, want 1", n)
	}
}

// TestForwardStaleConnectionResent closes the pooled connection from
// the peer's side: the next forward resends on a fresh connection and
// counts no error.
func TestForwardStaleConnectionResent(t *testing.T) {
	c, ts := newTestCluster(t, echoHandler)
	for i := 0; i < 3; i++ {
		if _, err := c.Forward(context.Background(), "peer", "/v1/blocking", nil); err != nil {
			t.Fatalf("forward %d: %v", i, err)
		}
		ts.CloseClientConnections()
	}
	if ps := c.Snapshot().Peers["peer"]; ps.Errors != 0 || !ps.Healthy || ps.Forwards != 3 {
		t.Fatalf("peer snapshot %+v, want 3 forwards, no error, healthy", ps)
	}
}

// TestForwardCancelMidResponse cancels a forward while the body is
// arriving: it returns at once and the connection is not pooled.
func TestForwardCancelMidResponse(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	c, _ := newTestCluster(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		io.WriteString(w, `{"partial":`) //lint:allow errcheck test response write
		w.(http.Flusher).Flush()
		close(started)
		<-release
	}))
	t.Cleanup(func() { close(release) })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan time.Time)
	go func() {
		_, err := c.Forward(ctx, "peer", "/v1/blocking", nil)
		if err == nil {
			t.Error("cancelled forward succeeded")
		}
		done <- time.Now()
	}()
	<-started
	t0 := time.Now()
	cancel()
	if d := (<-done).Sub(t0); d > 100*time.Millisecond {
		t.Fatalf("forward returned %v after cancellation, want < 100ms", d)
	}
	if n := idleConns(c.peers["peer"]); n != 0 {
		t.Fatalf("%d idle connections after a cancelled exchange, want 0", n)
	}
}

func TestForwardConnectionCloseNotPooled(t *testing.T) {
	c, _ := newTestCluster(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		io.WriteString(w, `{}`) //lint:allow errcheck test response write
	}))
	if _, err := c.Forward(context.Background(), "peer", "/v1/blocking", nil); err != nil {
		t.Fatal(err)
	}
	if n := idleConns(c.peers["peer"]); n != 0 {
		t.Fatalf("%d idle connections after a Connection: close answer, want 0", n)
	}
}

// TestForwardPoolBoundAndClose runs 64 concurrent forwards, then
// checks the pool bound and that Close leaves no connection open and
// no client goroutine behind.
func TestForwardPoolBoundAndClose(t *testing.T) {
	var open atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond) // keep the forwards overlapping
		io.WriteString(w, `{}`)          //lint:allow errcheck test response write
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	ts.Start()
	defer ts.Close()
	c, err := New(Config{NodeID: "self", Peers: map[string]string{"self": "http://unused", "peer": ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Forward(context.Background(), "peer", "/v1/blocking", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := idleConns(c.peers["peer"]); n > maxIdlePerPeer || n == 0 {
		t.Fatalf("%d idle connections after 64 concurrent forwards, want 1..%d", n, maxIdlePerPeer)
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for open.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := open.Load(); n != 0 {
		t.Fatalf("%d connections still open after Close", n)
	}
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "xbar/internal/cluster.") && !strings.Contains(g, "TestForwardPoolBoundAndClose") ||
			strings.Contains(g, "net/http.(*persistConn)") {
			t.Errorf("client goroutine left after Close:\n%s", g)
		}
	}
	// Forwarding still works after Close, but pools nothing.
	if _, err := c.Forward(context.Background(), "peer", "/v1/blocking", nil); err != nil {
		t.Fatal(err)
	}
	if n := idleConns(c.peers["peer"]); n != 0 {
		t.Fatalf("%d idle connections pooled after Close", n)
	}
}

// TestForwardIdleExpiry: a connection idle for idleTimeout is closed,
// not reused.
func TestForwardIdleExpiry(t *testing.T) {
	c, _ := newTestCluster(t, echoHandler)
	now := time.Now()
	c.now = func() time.Time { return now }
	if _, err := c.Forward(context.Background(), "peer", "/v1/blocking", nil); err != nil {
		t.Fatal(err)
	}
	p := c.peers["peer"]
	first := p.idle[0]
	now = now.Add(idleTimeout)
	if _, err := c.Forward(context.Background(), "peer", "/v1/blocking", nil); err != nil {
		t.Fatal(err)
	}
	if idleConns(p) != 1 || p.idle[0] == first {
		t.Fatal("an expired idle connection was reused")
	}
}

// cannedConn is an in-memory peer: every request written to it is
// answered with resp, then EOF.
type cannedConn struct {
	net.Conn // nil: only the methods below are called
	resp     []byte
	r        bytes.Reader
}

func (c *cannedConn) Write(b []byte) (int, error) {
	c.r.Reset(c.resp)
	return len(b), nil
}

func (c *cannedConn) Read(b []byte) (int, error)       { return c.r.Read(b) }
func (c *cannedConn) Close() error                     { return nil }
func (c *cannedConn) SetDeadline(time.Time) error      { return nil }
func (c *cannedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *cannedConn) SetWriteDeadline(time.Time) error { return nil }

// cannedPeer builds a cluster whose peer "peer" dials cannedConns
// answering resp.
func cannedPeer(t testing.TB, resp []byte) *Cluster {
	c, err := New(Config{NodeID: "self", Peers: map[string]string{"self": "http://unused", "peer": "http://peer.invalid"}})
	if err != nil {
		t.Fatal(err)
	}
	c.peers["peer"].dial = func(context.Context) (net.Conn, error) { return &cannedConn{resp: resp}, nil }
	return c
}

// forwardAllocs is the client's allocation count per warm forward
// under a cancellable context: the ForwardResult, the body, and the
// two of context.AfterFunc's registration.
const forwardAllocs = 4

// TestForwardAllocs pins the client's allocations per forward. The
// canned in-memory peer keeps server allocations out of the count.
func TestForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	c := cannedPeer(t, []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Xbar-Node: peer\r\nContent-Length: 11\r\n\r\n{\"ok\":true}"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := []byte(`{"n1":16,"n2":16}`)
	forward := func() {
		if _, err := c.Forward(ctx, "peer", "/v1/blocking", body); err != nil {
			t.Fatal(err)
		}
	}
	forward()
	got := testing.AllocsPerRun(500, forward)
	t.Logf("%v allocations per forward", got)
	if got > forwardAllocs {
		t.Fatalf("%v allocations per forward, want <= %d", got, forwardAllocs)
	}
}

// goldenResponses renders the wire golden's answers as HTTP/1.1
// responses with a declared length.
func goldenResponses(t testing.TB) [][]byte {
	data, err := os.ReadFile(filepath.Join("..", "server", "testdata", "wire.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, step := range strings.Split(string(data), "== ")[1:] {
		lines := strings.SplitN(step, "\n", 4)
		if len(lines) < 4 {
			continue
		}
		var status int
		var ctype, node string
		if _, err := fmt.Sscanf(lines[2], "%d %q %q", &status, &ctype, &node); err != nil {
			continue
		}
		out = append(out, []byte(fmt.Sprintf("HTTP/1.1 %d %s\r\nContent-Type: %s\r\nX-Xbar-Node: %s\r\nContent-Length: %d\r\n\r\n%s",
			status, http.StatusText(status), ctype, node, len(lines[3]), lines[3])))
	}
	return out
}

// FuzzPeerResponse serves arbitrary response bytes from an in-memory
// peer and holds the client to net/http's reading of them: whatever
// the client accepts, http.ReadResponse accepts too, with the same
// status, Content-Type, X-Xbar-Node, body and connection reuse. The
// client may reject more (the forward then falls over to local
// compute), never less.
func FuzzPeerResponse(f *testing.F) {
	for _, r := range goldenResponses(f) {
		f.Add(r)
	}
	for _, s := range []string{
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Type: application/json\r\n\r\n5\r\nhello\r\nA\r\n0123456789\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nConnection: keep-alive, Close\r\nX-Xbar-Node: n2\r\n\r\nto the end",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 503 Service Unavailable\r\ncontent-type: text/plain\r\nx-xbar-node: peer\r\ncontent-length: 4\r\n\r\nbusy",
		"HTTP/1.1 200\r\nContent-Length:  3 \r\n\r\nabc",
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nX-Folded: a\r\n b\r\nContent-Length: 0\r\n\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newPeer("peer", "http://peer.invalid")
		p.dial = func(context.Context) (net.Conn, error) { return &cannedConn{resp: data}, nil }
		now := time.Now()
		res, err := p.do(context.Background(), now, now.Add(time.Second), request{method: "POST", path: "/v1/blocking", from: "self"})
		if err != nil {
			return
		}
		req, _ := http.NewRequest(http.MethodPost, "http://peer.invalid/v1/blocking", nil)
		ref, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), req)
		if err != nil {
			t.Fatalf("client accepted %q, net/http rejects it: %v", data, err)
		}
		body, err := io.ReadAll(ref.Body)
		if err != nil {
			t.Fatalf("client accepted %q, net/http fails reading the body: %v", data, err)
		}
		want := fmt.Sprintf("%d %q %q %q reuse=%v", ref.StatusCode, ref.Header.Get("Content-Type"), ref.Header.Get(HeaderNode), body, !ref.Close)
		got := fmt.Sprintf("%d %q %q %q reuse=%v", res.status, res.contentType, res.servedBy, res.body, res.keepAlive)
		if got != want {
			t.Fatalf("response %q:\nclient   %s\nnet/http %s", data, got, want)
		}
	})
}

// TestReadResponseRejects lists answers the client refuses, each a
// transport error that fails the forward over to local compute.
func TestReadResponseRejects(t *testing.T) {
	for _, s := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: \r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(maxBodyBytes+1) + "\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2;ext\r\n{}\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
		"HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\nContent-Length: 0\n\n",
		"HTTP/1.1 200 OK\r\nX-Folded: a\r\n b\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBad Name: a\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX: \x01\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX: " + strings.Repeat("a", maxHeaderBytes) + "\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTrailer: X\r\nTransfer-Encoding: chunked\r\n\r\n0\r\nX: 1\r\n\r\n",
		"",
	} {
		if _, err := readResponse(bufio.NewReaderSize(strings.NewReader(s), 4096), "peer"); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}
