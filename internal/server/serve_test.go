package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xbar/internal/cluster"
)

// startLoop serves a new Server on a loopback listener through the
// serve loop, counts the connections the loop hands to net/http, and
// shuts the server down with the test.
func startLoop(t testing.TB, cfg Config) (s *Server, addr string, handoffs *atomic.Int64) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	handoffs = new(atomic.Int64)
	s.httpSrv.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			handoffs.Add(1)
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, s.Addr(), handoffs
}

// rawConn is a client connection that writes requests byte for byte.
type rawConn struct {
	t  testing.TB
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t testing.TB, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() }) //lint:allow errcheck test teardown
	return &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

// roundTrip writes req and reads one response with its body.
func (rc *rawConn) roundTrip(req string) (*http.Response, []byte) {
	rc.t.Helper()
	if _, err := io.WriteString(rc.nc, req); err != nil {
		rc.t.Fatal(err)
	}
	return rc.read()
}

func (rc *rawConn) read() (*http.Response, []byte) {
	rc.t.Helper()
	resp, err := http.ReadResponse(rc.br, nil)
	for err == nil && resp.StatusCode == http.StatusContinue {
		resp, err = http.ReadResponse(rc.br, nil)
	}
	if err != nil {
		rc.t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		rc.t.Fatal(err)
	}
	return resp, body
}

// closed reports whether the server closes the connection within d,
// with no byte sent.
func (rc *rawConn) closed(d time.Duration) bool {
	rc.t.Helper()
	rc.nc.SetReadDeadline(time.Now().Add(d)) //lint:allow errcheck a failed deadline fails the read below
	n, err := rc.br.Read(make([]byte, 1))
	if n > 0 {
		rc.t.Fatalf("server sent a byte before closing")
	}
	return err == io.EOF
}

func postRequest(path, body string, extra ...string) string {
	return "POST " + path + " HTTP/1.1\r\nHost: xbard\r\nContent-Type: application/json\r\n" +
		strings.Join(extra, "") + "Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

// TestServeLoopWireGolden replays every wire.golden step over a real
// listener through the serve loop, on keep-alive connections: status,
// Content-Type, X-Xbar-Node and body must match the golden byte for
// byte, as must the /metrics layout after the sequence. Every response
// declares its Content-Length, and no connection is handed off.
func TestServeLoopWireGolden(t *testing.T) {
	_, addr, handoffs := startLoop(t, Config{MaxDim: 64, MaxBodyBytes: 4096})
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	var got bytes.Buffer
	do := func(method, path, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, "http://"+addr+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close() //lint:allow errcheck the body is fully read
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) > 0 {
			t.Errorf("%s %s: Content-Length %d, Transfer-Encoding %v, body %d bytes",
				method, path, resp.ContentLength, resp.TransferEncoding, len(data))
		}
		return resp, data
	}
	for _, st := range wireSteps {
		resp, body := do(st.method, st.path, st.body)
		fmt.Fprintf(&got, "== %s\n%s %s\n%d %q %q\n%s", st.name, st.method, st.path,
			resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("X-Xbar-Node"), body)
	}
	resp, body := do(http.MethodGet, "/metrics", "")
	fmt.Fprintf(&got, "== metrics layout\n%d %q\n%s\n", resp.StatusCode, resp.Header.Get("Content-Type"), metricsLayout(t, body))
	want, err := os.ReadFile(filepath.Join("testdata", "wire.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("serve loop differs from wire.golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("serve loop output has %d lines, wire.golden %d", len(gl), len(wl))
	}
	if n := handoffs.Load(); n != 0 {
		t.Errorf("%d connections handed off, want none", n)
	}
}

// TestServeLoopReadyzThenPost sends a readiness probe, a scrape, an
// unknown path, a wrong method and solve requests on one connection,
// as a load generator's pooled connection does: every one is answered
// by the loop, with the mux's own 404 and 405, and the connection is
// never handed off.
func TestServeLoopReadyzThenPost(t *testing.T) {
	_, addr, handoffs := startLoop(t, Config{})
	rc := dialRaw(t, addr)
	blocking := `{"n1":16,"n2":16,` + wireClasses + `}`
	for _, tc := range []struct {
		req, status, allow, body string
	}{
		{"GET /readyz HTTP/1.1\r\nHost: xbard\r\n\r\n", "200 OK", "", `{"status":"ready"}` + "\n"},
		{postRequest("/v1/blocking", blocking), "200 OK", "", ""},
		{"GET /metrics HTTP/1.1\r\nHost: xbard\r\nUser-Agent: probe\r\n\r\n", "200 OK", "", ""},
		{"GET /nowhere HTTP/1.1\r\nHost: xbard\r\n\r\n", "404 Not Found", "", "404 page not found\n"},
		{"DELETE /v1/blocking HTTP/1.1\r\nHost: xbard\r\n\r\n", "405 Method Not Allowed", "POST", "Method Not Allowed\n"},
		{"GET /v1/blocking HTTP/1.1\r\nHost: xbard\r\n\r\n", "405 Method Not Allowed", "POST", "Method Not Allowed\n"},
		{postRequest("/v1/blocking", blocking), "200 OK", "", ""},
	} {
		resp, body := rc.roundTrip(tc.req)
		if resp.Status != tc.status || resp.Header.Get("Allow") != tc.allow || tc.body != "" && string(body) != tc.body {
			t.Errorf("%q: %s Allow %q %q; want %s Allow %q %q", tc.req, resp.Status, resp.Header.Get("Allow"), body,
				tc.status, tc.allow, tc.body)
		}
		if resp.Close {
			t.Fatalf("%q: the server closed the connection", tc.req)
		}
	}
	if n := handoffs.Load(); n != 0 {
		t.Errorf("%d connections handed off, want none", n)
	}
}

// waitInFlight waits up to d for the in-flight gauge to read n and
// reports whether it did.
func waitInFlight(s *Server, n int64, d time.Duration) bool {
	for end := time.Now().Add(d); s.metrics.inFlight.Load() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			return false
		}
	}
	return true
}

// blockingRequest is the /v1/blocking request for paperSpec(n).
func blockingRequest(t testing.TB, n int) string {
	t.Helper()
	buf, err := json.Marshal(BlockingRequest{SwitchSpec: paperSpec(n)})
	if err != nil {
		t.Fatal(err)
	}
	return postRequest("/v1/blocking", string(buf))
}

// TestServeLoopHangUpEndsSlotWait: a client that hangs up while its
// request waits for a solve slot ends the wait at once, not at
// RequestTimeout, also when the connection's header deadline falls
// inside the wait.
func TestServeLoopHangUpEndsSlotWait(t *testing.T) {
	h := readHeaderTimeout
	t.Cleanup(func() { readHeaderTimeout = h }) // after every startLoop's Shutdown
	for _, tc := range []struct {
		name          string
		headerTimeout time.Duration
		wait          time.Duration // how long the request waits before the hang-up
	}{
		{"hang-up", h, 0},
		{"past the header deadline", 50 * time.Millisecond, 200 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			readHeaderTimeout = tc.headerTimeout
			s, addr, _ := startLoop(t, Config{MaxConcurrent: 1, RequestTimeout: 20 * time.Second})
			s.sem <- struct{}{} // the test holds the only slot
			defer func() { <-s.sem }()
			rc := dialRaw(t, addr)
			io.WriteString(rc.nc, blockingRequest(t, 8)) //lint:allow errcheck a failed write fails the wait below
			if !waitInFlight(s, 1, 5*time.Second) {
				t.Fatal("the request never started")
			}
			time.Sleep(tc.wait)
			if n := s.metrics.inFlight.Load(); n != 1 {
				t.Fatalf("in flight %d before the hang-up, want 1", n)
			}
			rc.nc.Close() //lint:allow errcheck the hang-up under test
			start := time.Now()
			if !waitInFlight(s, 0, time.Second) {
				t.Fatalf("the request still waits for a slot 1s after its client hung up")
			}
			t.Logf("the wait ended %v after the hang-up", time.Since(start))
		})
	}
}

// TestServeLoopPipelinedBehindMiss: requests written right behind a
// miss, before its response, are answered intact and in order on the
// same connection, whether they arrive while the miss waits for a
// solve slot (the hang-up watcher leaves them to the next readHead)
// or in the same segment as the miss.
func TestServeLoopPipelinedBehindMiss(t *testing.T) {
	s, addr, handoffs := startLoop(t, Config{MaxConcurrent: 1})
	ref, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	fresh := func(n int) string { // the answer to a miss for paperSpec(n)
		req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(blockingRequest(t, n))))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		ref.Handler().ServeHTTP(rec, req)
		return rec.Body.String()
	}
	const readyz = "GET /readyz HTTP/1.1\r\nHost: xbard\r\n\r\n"
	check := func(rc *rawConn, what, want string) {
		t.Helper()
		resp, body := rc.read()
		if resp.StatusCode != http.StatusOK || resp.Close || string(body) != want {
			t.Errorf("%s: status %d, close %v, body %q; want 200 %q", what, resp.StatusCode, resp.Close, body, want)
		}
	}
	const ready = `{"status":"ready"}` + "\n"

	rc := dialRaw(t, addr)
	s.sem <- struct{}{}                          // the miss waits for a slot
	io.WriteString(rc.nc, blockingRequest(t, 8)) //lint:allow errcheck a failed write fails the read below
	if !waitInFlight(s, 1, 5*time.Second) {
		t.Fatal("the miss never started")
	}
	// The pauses let the watcher block in Peek before the bytes come,
	// and wake on them before the slot frees; the answers must be the
	// same at any other timing.
	time.Sleep(20 * time.Millisecond)
	io.WriteString(rc.nc, readyz+blockingRequest(t, 10)) //lint:allow errcheck a failed write fails the read below
	time.Sleep(20 * time.Millisecond)
	<-s.sem
	check(rc, "miss", fresh(8))
	check(rc, "readyz behind it", ready)
	check(rc, "second miss", fresh(10))

	io.WriteString(rc.nc, blockingRequest(t, 12)+readyz) //lint:allow errcheck a failed write fails the read below
	check(rc, "miss in one segment", fresh(12))
	check(rc, "readyz in the same segment", ready)

	rc.roundTrip(readyz)
	resp, body := rc.roundTrip(blockingRequest(t, 8))
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"cached":true`)) {
		t.Errorf("hit after the pipelined requests: status %d, body %q", resp.StatusCode, body)
	}
	if n := handoffs.Load(); n != 0 {
		t.Errorf("%d connections handed off, want none", n)
	}
}

// TestServeLoopWatcherExits: hits, misses, a request that waits for
// a slot twice (a fill and a gradient re-solve) and a hang-up, on
// keep-alive connections, leave no goroutine behind: each hang-up
// watcher ends with its request, and each connection's goroutine with
// the connection.
func TestServeLoopWatcherExits(t *testing.T) {
	s, addr, _ := startLoop(t, Config{MaxConcurrent: 1, RequestTimeout: 20 * time.Second})
	settle := func(want int) int { // the goroutine count once it is down to want, or after 2s
		n := runtime.NumGoroutine()
		for end := time.Now().Add(2 * time.Second); n > want && time.Now().Before(end); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		return n
	}
	const readyz = "GET /readyz HTTP/1.1\r\nHost: xbard\r\n\r\n"
	rc := dialRaw(t, addr)
	rc.roundTrip(readyz)
	time.Sleep(10 * time.Millisecond) // Serve's goroutines have started
	base := runtime.NumGoroutine()    // rc's goroutine included
	gradients := postRequest("/v1/revenue", `{"n1":12,"n2":12,"weights":[1,3],"gradients":true,`+wireClasses+`}`)
	for _, req := range []string{
		blockingRequest(t, 4), blockingRequest(t, 4), blockingRequest(t, 6), blockingRequest(t, 6),
		gradients, gradients, readyz,
	} {
		if resp, body := rc.roundTrip(req); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	if n := settle(base); n > base {
		t.Errorf("%d goroutines after hits and misses, %d before", n, base)
	}

	hu := dialRaw(t, addr)
	s.sem <- struct{}{}
	io.WriteString(hu.nc, blockingRequest(t, 8)) //lint:allow errcheck a failed write fails the wait below
	if !waitInFlight(s, 1, 5*time.Second) {
		t.Fatal("the request never started")
	}
	hu.nc.Close() //lint:allow errcheck the hang-up under test
	if !waitInFlight(s, 0, 5*time.Second) {
		t.Fatal("the request still waits after its client hung up")
	}
	<-s.sem
	if n := settle(base); n > base {
		t.Errorf("%d goroutines after a hang-up, %d before", n, base)
	}
	rc.nc.Close() //lint:allow errcheck the connection ends here
	if n := settle(base - 1); n > base-1 {
		t.Errorf("%d goroutines after every connection closed, %d with one open", n, base)
	}
}

// TestServeLoopHandoff sends requests outside the loop's subset, each
// after an answered request on the same connection: net/http answers
// them as it does without the loop, from the replayed bytes.
func TestServeLoopHandoff(t *testing.T) {
	_, addr, handoffs := startLoop(t, Config{})
	blocking := `{"n1":8,"n2":8,` + wireClasses + `}`
	chunked := fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(blocking), blocking)
	for i, tc := range []struct {
		name, req string
		status    int
	}{
		{"expect", postRequest("/v1/blocking", blocking, "Expect: 100-continue\r\n"), 200},
		{"chunked", "POST /v1/blocking HTTP/1.1\r\nHost: xbard\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked, 200},
		{"http/1.0", "GET /readyz HTTP/1.0\r\n\r\n", 200},
		{"no host", "GET /readyz HTTP/1.1\r\n\r\n", 400},
		{"query", "GET /readyz?x=1 HTTP/1.1\r\nHost: xbard\r\n\r\n", 200},
		{"unclean path", "GET /v1/../readyz HTTP/1.1\r\nHost: xbard\r\n\r\n", 301},
		{"bare LF", "GET /readyz HTTP/1.1\nHost: xbard\n\n", 200},
		{"large header", "GET /readyz HTTP/1.1\r\nHost: xbard\r\nX-Pad: " + strings.Repeat("p", 2*headBufBytes) + "\r\n\r\n", 200},
	} {
		rc := dialRaw(t, addr)
		if resp, _ := rc.roundTrip("GET /healthz HTTP/1.1\r\nHost: xbard\r\n\r\n"); resp.StatusCode != 200 {
			t.Fatalf("%s: healthz %d", tc.name, resp.StatusCode)
		}
		resp, body := rc.roundTrip(tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d (%q), want %d", tc.name, resp.StatusCode, body, tc.status)
		}
		if n := handoffs.Load(); n != int64(i+1) {
			t.Errorf("%s: %d connections handed off, want %d", tc.name, n, i+1)
		}
	}
}

// TestServeLoopHeaderTimeout: a connection that stops halfway through
// its header block is closed at the header timeout, with no response,
// and an idle one at the idle timeout.
func TestServeLoopHeaderTimeout(t *testing.T) {
	h, i := readHeaderTimeout, idleTimeout
	t.Cleanup(func() { readHeaderTimeout, idleTimeout = h, i }) // after startLoop's Shutdown
	readHeaderTimeout, idleTimeout = 200*time.Millisecond, 400*time.Millisecond
	_, addr, _ := startLoop(t, Config{})

	rc := dialRaw(t, addr)
	rc.roundTrip("GET /healthz HTTP/1.1\r\nHost: xbard\r\n\r\n")
	start := time.Now()
	io.WriteString(rc.nc, "POST /v1/blocking HTTP/1.1\r\nHost: xb") //lint:allow errcheck a failed write fails the read below
	if !rc.closed(5 * time.Second) {
		t.Fatal("a half-sent header block was not cut")
	}
	if d := time.Since(start); d < readHeaderTimeout || d > readHeaderTimeout+time.Second {
		t.Errorf("half-sent header cut after %v, want about %v", d, readHeaderTimeout)
	}

	rc = dialRaw(t, addr)
	rc.roundTrip("GET /healthz HTTP/1.1\r\nHost: xbard\r\n\r\n")
	start = time.Now()
	if !rc.closed(5 * time.Second) {
		t.Fatal("an idle connection was not closed")
	}
	if d := time.Since(start); d < idleTimeout-50*time.Millisecond || d > idleTimeout+time.Second {
		t.Errorf("idle connection closed after %v, want about %v", d, idleTimeout)
	}
}

// TestServeLoopBodyTooLarge: a body over MaxBodyBytes gets the 413
// document and the connection closes after it, as on net/http.
func TestServeLoopBodyTooLarge(t *testing.T) {
	_, addr, handoffs := startLoop(t, Config{MaxBodyBytes: 4096})
	rc := dialRaw(t, addr)
	resp, body := rc.roundTrip(postRequest("/v1/blocking", `{"n1":8,"n2":8,"classes":[{`+wirePad+`}]}`))
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !resp.Close ||
		string(body) != `{"error":"request body exceeds 4096 bytes"}`+"\n" {
		t.Errorf("status %d, close %v, body %q; want the 413 document and a close", resp.StatusCode, resp.Close, body)
	}
	if !rc.closed(5 * time.Second) {
		t.Error("the connection stayed open after the 413")
	}
	if n := handoffs.Load(); n != 0 {
		t.Errorf("%d connections handed off, want none", n)
	}
}

// TestServeLoopShutdownDrain: Shutdown closes a connection idle
// between requests at once, lets a request waiting on an in-flight
// fill finish (its response closing the connection), and returns once
// that request is answered.
func TestServeLoopShutdownDrain(t *testing.T) {
	s, addr, _ := startLoop(t, Config{RequestTimeout: 10 * time.Second})
	idle := dialRaw(t, addr)
	idle.roundTrip("GET /healthz HTTP/1.1\r\nHost: xbard\r\n\r\n")

	entered, release := make(chan struct{}), make(chan struct{})
	go s.cache.get(context.Background(), cacheKey(alg1, paperSwitch(8)), func() (*solverEntry, error) { //lint:allow errcheck the waiter below checks the answer
		close(entered)
		<-release
		return s.solvers.fill(alg1, paperSwitch(8))
	})
	<-entered
	busy := dialRaw(t, addr)
	buf, _ := json.Marshal(BlockingRequest{SwitchSpec: paperSpec(8)})
	io.WriteString(busy.nc, postRequest("/v1/blocking", string(buf))) //lint:allow errcheck a failed write fails the read below
	for s.metrics.cache.shared.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	if !idle.closed(2 * time.Second) {
		t.Error("Shutdown left an idle connection open")
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	resp, body := busy.read()
	if resp.StatusCode != http.StatusOK || !resp.Close || !bytes.Contains(body, []byte(`"cached":true`)) {
		t.Errorf("in-flight request: status %d, close %v, body %q", resp.StatusCode, resp.Close, body)
	}
	if err := <-shut; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestRetryAfter: every 503 carries Retry-After, on both serve paths:
// a miss that cannot get a solve slot, and /readyz while draining.
func TestRetryAfter(t *testing.T) {
	cfg := Config{MaxConcurrent: 1, RequestTimeout: 50 * time.Millisecond}
	hs, ts := newTestServer(t, cfg)
	ls, addr, _ := startLoop(t, cfg)
	for _, side := range []struct {
		name string
		s    *Server
		base string
	}{{"net/http", hs, ts.URL}, {"serve loop", ls, "http://" + addr}} {
		client := &http.Client{Transport: &http.Transport{}}
		check := func(what string, resp *http.Response, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", side.name, what, err)
			}
			resp.Body.Close() //lint:allow errcheck only the head matters
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
				t.Errorf("%s %s: status %d, Retry-After %q; want 503 with Retry-After 1",
					side.name, what, resp.StatusCode, resp.Header.Get("Retry-After"))
			}
		}
		side.s.sem <- struct{}{}
		buf, _ := json.Marshal(BlockingRequest{SwitchSpec: paperSpec(8)})
		resp, err := client.Post(side.base+"/v1/blocking", "application/json", bytes.NewReader(buf))
		check("overloaded miss", resp, err)
		<-side.s.sem
		side.s.draining.Store(true)
		resp, err = client.Get(side.base + "/readyz")
		check("draining /readyz", resp, err)
		side.s.draining.Store(false)
		client.CloseIdleConnections()
	}
}

// fuzzConn is an in-memory connection: it reads data, records what
// is written, and ignores deadlines.
type fuzzConn struct {
	r   *bytes.Reader
	out bytes.Buffer
}

func (c *fuzzConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *fuzzConn) Close() error                     { return nil }
func (c *fuzzConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *fuzzConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *fuzzConn) SetDeadline(time.Time) error      { return nil }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }

// seenRequest is what the fuzz handler saw of one request.
type seenRequest struct {
	method, path, forwarded string
	length                  int64
	body                    []byte
	bodyErr, close          bool
}

// muxPath is ServeMux's cleanPath: the path it routes without a
// redirect.
func muxPath(p string) string {
	np := path.Clean(p)
	if strings.HasSuffix(p, "/") && np != "/" {
		np += "/"
	}
	return np
}

// FuzzServeRequest runs arbitrary bytes through one serve-loop
// connection and holds the loop to net/http's reading of them. Each
// request the loop serves, http.ReadRequest reads at the same offset
// too, with the same method, path, Content-Length, body, close
// semantics and X-Xbar-Forwarded, and its path is one ServeMux routes
// without a redirect. A request the loop does not serve is handed
// off with every byte from its first on and with nothing of its own
// written: the bytes written are exactly the served requests'
// responses.
func FuzzServeRequest(f *testing.F) {
	body := `{"n1":8,"n2":8}`
	for _, s := range []string{
		postRequest("/v1/blocking", body),
		postRequest("/v1/blocking", body) + "GET /readyz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
		"GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n" + postRequest("/v1/blocking", body, cluster.HeaderForwarded+": n1\r\n"),
		postRequest("/v1/blocking", body, "Expect: 100-continue\r\n"),
		"POST /v1/blocking HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"POST /v1/blocking HTTP/1.1\r\nHost: x\r\nUpgrade: h2c\r\nContent-Length: 0\r\n\r\n",
		"GET /readyz HTTP/1.0\r\n\r\n",
		"GET /readyz HTTP/1.1\r\n\r\n",
		"GET /a/../readyz HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /readyz?x=1 HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /v1/%62locking HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /readyz HTTP/1.1\r\nHost: x\r\nX-Pad: " + strings.Repeat("p", headBufBytes) + "\r\n\r\n",
		"GET /readyz HTTP/1.1\nHost: x\n\n",
		"GET /readyz HTTP/1.1\r\nHost: x\r\nX-Folded: a\r\n b\r\n\r\n",
		"POST /v1/blocking HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
		"POST /v1/blocking HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n{}",
		"POST /v1/blocking HTTP/1.1\r\nHost: x\r\nConnection: keep-alive, Close\r\nContent-Length: 2\r\n\r\n{}",
		"GET /readyz HTTP/1.1\r\nHost: x\r\nHost: y\r\n\r\n",
		"GET /readyz HTTP/1.1\r\nHo",
		"HEAD /readyz HTTP/1.1\r\nHost: x\r\n\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var seen []seenRequest
		mux := http.NewServeMux()
		mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
			b, err := io.ReadAll(r.Body)
			seen = append(seen, seenRequest{r.Method, r.URL.Path, r.Header.Get(cluster.HeaderForwarded),
				r.ContentLength, b, err != nil, r.Close})
			io.WriteString(w, "ok") //lint:allow errcheck the loop's writer buffers
		})
		s := &Server{mux: mux, cfg: Config{MaxBodyBytes: 1 << 20}, handoff: &handoffListener{
			conns: make(chan net.Conn, 1), done: make(chan struct{})}}
		fc := &fuzzConn{r: bytes.NewReader(data)}
		c := &serveConn{s: s, nc: fc, accepted: time.Now(), hdr: make(http.Header)}
		c.serve()

		src := bytes.NewReader(data)
		ref := bufio.NewReader(src)
		offset := 0
		for i, got := range seen {
			req, err := http.ReadRequest(ref)
			if err != nil {
				t.Fatalf("request %d of %q: the loop served it, net/http rejects it: %v", i, data, err)
			}
			b, err := io.ReadAll(req.Body)
			want := seenRequest{req.Method, req.URL.Path, req.Header.Get(cluster.HeaderForwarded),
				req.ContentLength, b, err != nil, req.Close}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("request %d of %q:\nloop     %+v\nnet/http %+v", i, data, got, want)
			}
			if p := got.path; muxPath(p) != p || req.URL.RawQuery != "" || req.URL.RawPath != "" {
				t.Fatalf("request %d of %q: the loop served %q, which ServeMux redirects or unescapes", i, data, req.RequestURI)
			}
			offset = len(data) - src.Len() - ref.Buffered()
			if err != nil {
				break
			}
		}
		out := bufio.NewReader(bytes.NewReader(fc.out.Bytes()))
		for i := range seen {
			resp, err := http.ReadResponse(out, &http.Request{Method: seen[i].method})
			if err != nil {
				t.Fatalf("response %d to %q: %v", i, data, err)
			}
			want := "ok"
			if seen[i].method == http.MethodHead {
				want = ""
			}
			if b, err := io.ReadAll(resp.Body); err != nil || string(b) != want || resp.ContentLength != 2 {
				t.Fatalf("response %d to %q: body %q, %v, Content-Length %d", i, data, b, err, resp.ContentLength)
			}
		}
		if out.Buffered() > 0 {
			t.Fatalf("%q: the loop wrote bytes beyond its responses", data)
		}
		select {
		case hc := <-s.handoff.conns:
			replay, err := io.ReadAll(hc)
			if err != nil || !bytes.Equal(replay, data[offset:]) {
				t.Fatalf("%q: handed off %q (%v), want the bytes from offset %d", data, replay, err, offset)
			}
		default:
		}
	})
}
