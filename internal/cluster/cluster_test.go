package cluster

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newTestCluster builds a two-member cluster "self"+"peer" whose peer
// URL points at the given handler.
func newTestCluster(t *testing.T, peerHandler http.Handler) (*Cluster, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(peerHandler)
	t.Cleanup(ts.Close)
	c, err := New(Config{NodeID: "self", Peers: map[string]string{"self": "http://unused", "peer": ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, ts
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{}, // no peers
		{NodeID: "x", Peers: map[string]string{"y": "http://h"}},          // self not a member
		{NodeID: "x", Peers: map[string]string{"x": "h", "y": "host:80"}}, // peer url without scheme
		{NodeID: "x", Peers: map[string]string{"x": "h", "": "http://h"}}, // empty id
		// Ids and URLs that cannot go on the wire verbatim.
		{NodeID: "self\r\nX-Evil: 1", Peers: map[string]string{"self\r\nX-Evil: 1": "h", "y": "http://h"}}, // header injection
		{NodeID: "x", Peers: map[string]string{"x": "h", "a b": "http://h"}},                               // space in id
		{NodeID: "x", Peers: map[string]string{"x": "h", "nöde": "http://h"}},                              // non-ASCII id
		{NodeID: "x", Peers: map[string]string{"x": "h", "y": "http://u:p@h"}},                             // userinfo
		{NodeID: "x", Peers: map[string]string{"x": "h", "y": "http://h/pre?x=1"}},                         // query
		{NodeID: "x", Peers: map[string]string{"x": "h", "y": "http://h/pre?"}},                            // empty query
		{NodeID: "x", Peers: map[string]string{"x": "h", "y": "http://h/pre#f"}},                           // fragment
		{NodeID: "x", Peers: map[string]string{"x": "h", "y": "http://"}},                                  // empty host
		{NodeID: "x", Peers: map[string]string{"x": "h", "y": "http:///pre"}},                              // empty host, path only
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

func TestForwardCopiesResponse(t *testing.T) {
	c, _ := newTestCluster(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(HeaderForwarded) != "self" {
			t.Errorf("forwarded header = %q, want self", r.Header.Get(HeaderForwarded))
		}
		body, _ := io.ReadAll(r.Body)
		if string(body) != `{"q":1}` {
			t.Errorf("peer saw body %q", body)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(HeaderNode, "peer")
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, `{"a":2}`) //lint:allow errcheck test response write
	}))
	res, err := c.Forward(context.Background(), "peer", "/v1/blocking", []byte(`{"q":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusTeapot || string(res.Body) != `{"a":2}` || res.ServedBy != "peer" || res.ContentType != "application/json" {
		t.Fatalf("forward result %+v", res)
	}
	snap := c.Snapshot()
	if snap.Forwards != 1 || snap.ForwardErrors != 0 {
		t.Fatalf("forwards %d errors %d, want 1/0", snap.Forwards, snap.ForwardErrors)
	}
	if ps := snap.Peers["peer"]; ps.Forwards != 1 || !ps.Healthy {
		t.Fatalf("peer snapshot %+v", ps)
	}
}

func TestForwardRetriesThenFails(t *testing.T) {
	var calls atomic.Int64
	c, _ := newTestCluster(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	_, err := c.Forward(context.Background(), "peer", "/v1/blocking", nil)
	if err == nil {
		t.Fatal("forward to a 500 peer succeeded")
	}
	if got := calls.Load(); got != forwardAttempts {
		t.Fatalf("peer saw %d attempts, want %d", got, forwardAttempts)
	}
	snap := c.Snapshot()
	if snap.ForwardErrors != 1 || snap.Peers["peer"].Errors != forwardAttempts {
		t.Fatalf("snapshot %+v", snap)
	}
	// A 5xx answer is an application-level failure, not a dead
	// connection: the peer must stay forwardable.
	if !snap.Peers["peer"].Healthy {
		t.Fatal("peer marked down after a 5xx answer")
	}
}

func TestForwardDeadPeerBackoffGate(t *testing.T) {
	// A listener that is already closed: connection refused from the
	// first attempt, as with a peer dead at startup.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close() //lint:allow errcheck freeing the reserved port is the point
	c, err := New(Config{NodeID: "self", Peers: map[string]string{"self": "http://unused", "peer": deadURL}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Forward(context.Background(), "peer", "/v1/blocking", nil); err == nil {
		t.Fatal("forward to dead peer succeeded")
	}
	// The peer is now behind the backoff gate: the next forward fails
	// fast with ErrPeerDown instead of dialing again.
	if _, err := c.Forward(context.Background(), "peer", "/v1/blocking", nil); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("second forward error %v, want ErrPeerDown", err)
	}
	snap := c.Snapshot()
	if snap.Peers["peer"].Healthy {
		t.Fatal("dead peer reported healthy")
	}
	if snap.Peers["peer"].SkippedDown != 1 {
		t.Fatalf("skipped_down %d, want 1", snap.Peers["peer"].SkippedDown)
	}
}

func TestPeerBackoffExpiresAndProbes(t *testing.T) {
	p := &Peer{}
	t0 := time.Unix(1000, 0)
	p.reportFailure(t0)
	if p.healthy(t0.Add(reconnectBase / 2)) {
		t.Fatal("peer healthy inside the first backoff window")
	}
	if !p.healthy(t0.Add(reconnectBase + time.Millisecond)) {
		t.Fatal("peer not probeable after the backoff window")
	}
	// Consecutive failures double the gate, capped.
	for i := 0; i < 20; i++ {
		p.reportFailure(t0)
	}
	if p.healthy(t0.Add(reconnectCap - time.Millisecond)) {
		t.Fatal("gate below cap after many failures")
	}
	if !p.healthy(t0.Add(reconnectCap)) {
		t.Fatal("gate exceeds cap")
	}
	p.reportSuccess()
	if !p.healthy(t0) {
		t.Fatal("peer not healthy after success")
	}
}

func TestFetchJSON(t *testing.T) {
	c, _ := newTestCluster(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/metrics" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		io.WriteString(w, `{"ok":true}`) //lint:allow errcheck test response write
	}))
	data, err := c.FetchJSON(context.Background(), "peer", "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"ok":true}` {
		t.Fatalf("fetched %q", data)
	}
	if _, err := c.FetchJSON(context.Background(), "peer", "/nope"); err == nil {
		t.Fatal("404 fetch succeeded")
	}
	if _, err := c.FetchJSON(context.Background(), "ghost", "/metrics"); err == nil {
		t.Fatal("unknown peer fetch succeeded")
	}
}

func TestForwardUnknownPeer(t *testing.T) {
	c, _ := newTestCluster(t, http.NotFoundHandler())
	if _, err := c.Forward(context.Background(), "ghost", "/v1/blocking", nil); err == nil {
		t.Fatal("forward to unknown peer succeeded")
	}
}

func TestForwardCanceledContextStopsRetries(t *testing.T) {
	var calls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, _ := newTestCluster(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The client goes away while the first attempt is in flight.
		calls.Add(1)
		cancel()
		w.WriteHeader(http.StatusInternalServerError)
	}))
	_, err := c.Forward(ctx, "peer", "/v1/blocking", nil)
	if err == nil {
		t.Fatal("forward succeeded under cancellation")
	}
	if calls.Load() >= forwardAttempts {
		t.Fatalf("all %d attempts ran despite cancellation", calls.Load())
	}
}

func TestDefaultsAndAccessors(t *testing.T) {
	c, ts := newTestCluster(t, http.NotFoundHandler())
	if c.NodeID() != "self" {
		t.Fatalf("node id %q", c.NodeID())
	}
	if got := c.Nodes(); len(got) != 2 || got[0] != "peer" || got[1] != "self" {
		t.Fatalf("nodes %v", got)
	}
	if c.PeerURL("peer") != ts.URL {
		t.Fatalf("peer url %q, want %q", c.PeerURL("peer"), ts.URL)
	}
	if c.cfg.VNodes != 64 {
		t.Fatalf("defaults not applied: %+v", c.cfg)
	}
	if c.Owner("k") != "self" && c.Owner("k") != "peer" {
		t.Fatalf("owner %q", c.Owner("k"))
	}
	if strings.TrimRight(ts.URL, "/") != c.peers["peer"].baseURL {
		t.Fatalf("base url %q", c.peers["peer"].baseURL)
	}
}
