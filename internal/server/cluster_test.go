package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"xbar/internal/cluster"
)

// testFleet is an in-process multi-node cluster over real listeners.
// The peer-URL chicken-and-egg (URLs must be known at construction,
// ports only after binding) is solved by pre-binding port-0 listeners
// and handing them to the servers via UseListener.
type testFleet struct {
	ids  []string
	srvs map[string]*Server
	urls map[string]string
}

// newTestFleet starts n clustered nodes ("n0".."n<n-1>"), each serving
// on a loopback port, and tears them down with the test.
func newTestFleet(t testing.TB, n int) *testFleet {
	t.Helper()
	f := &testFleet{srvs: make(map[string]*Server, n), urls: make(map[string]string, n)}
	lns := make([]net.Listener, n)
	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("n%d", i)
		lns[i] = ln
		f.ids = append(f.ids, id)
		peers[id] = "http://" + ln.Addr().String()
	}
	for i, id := range f.ids {
		s, err := New(Config{NodeID: id, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		s.UseListener(lns[i])
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		go s.Serve() //lint:allow errcheck test server; Shutdown's error is the one that matters
		f.srvs[id] = s
		f.urls[id] = peers[id]
		t.Cleanup(func() { f.stop(t, id) })
	}
	return f
}

// stop shuts one node down; repeated stops are no-ops.
func (f *testFleet) stop(t testing.TB, id string) {
	t.Helper()
	s := f.srvs[id]
	if s == nil {
		return
	}
	delete(f.srvs, id)
	// Drop the test client's pooled conns first: a dialed-but-unused
	// keep-alive conn (StateNew) stalls Shutdown for ~5s otherwise.
	http.DefaultClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown %s: %v", id, err)
	}
}

// post sends body to one node and returns status, the raw response
// bytes and the serving node (the X-Xbar-Node response header).
func (f *testFleet) post(t testing.TB, id, path string, body any, hdr map[string]string) (int, []byte, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, f.urls[id]+path, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get(cluster.HeaderNode)
}

// ownerOf returns the fleet node owning the blocking-request cache key
// for spec (any node's ring view answers — membership is static).
func (f *testFleet) ownerOf(t testing.TB, spec SwitchSpec) string {
	t.Helper()
	for _, s := range f.srvs {
		sw, err := s.buildSwitchFor(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s.cluster.Owner(cacheKey(alg1, sw))
	}
	t.Fatal("empty fleet")
	return ""
}

// fleetMisses sums solver-cache misses across the live fleet.
func (f *testFleet) fleetMisses() int64 {
	var total int64
	for _, s := range f.srvs {
		total += s.metrics.cache.misses.Load()
	}
	return total
}

// nonOwner returns a live node other than owner.
func (f *testFleet) nonOwner(t testing.TB, owner string) string {
	t.Helper()
	for _, id := range f.ids {
		if id != owner && f.srvs[id] != nil {
			return id
		}
	}
	t.Fatal("no non-owner node alive")
	return ""
}

// TestClusterForwardingBitIdentical is the tentpole property: the same
// request posted to every node of a 3-node fleet returns byte-identical
// responses, all served by the key's owner, and the fleet fills the
// lattice exactly once.
func TestClusterForwardingBitIdentical(t *testing.T) {
	f := newTestFleet(t, 3)
	spec := paperSpec(16)
	req := BlockingRequest{SwitchSpec: spec}
	owner := f.ownerOf(t, spec)

	var bodies [][]byte
	for _, id := range f.ids {
		status, data, servedBy := f.post(t, id, "/v1/blocking", req, nil)
		if status != http.StatusOK {
			t.Fatalf("node %s: status %d: %s", id, status, data)
		}
		if servedBy != owner {
			t.Errorf("node %s: served by %q, want owner %q", id, servedBy, owner)
		}
		bodies = append(bodies, data)
	}
	// Cached flips false->true between the owner's first and later
	// serves, so strip it before comparing: the measures must match to
	// the byte.
	norm := func(b []byte) string {
		return string(bytes.ReplaceAll(b, []byte(`"cached":true`), []byte(`"cached":false`)))
	}
	for i := 1; i < len(bodies); i++ {
		if norm(bodies[i]) != norm(bodies[0]) {
			t.Errorf("node %s response differs:\n%s\nvs\n%s", f.ids[i], bodies[i], bodies[0])
		}
	}
	if got := f.fleetMisses(); got != 1 {
		t.Errorf("fleet-wide solver-cache misses = %d, want 1", got)
	}
	// The owner's cluster counters saw the two proxied requests.
	served := f.srvs[owner].cluster.Snapshot().ForwardedServed
	if served != 2 {
		t.Errorf("owner forwarded_served = %d, want 2", served)
	}
}

// TestClusterForwardLoopGuard pins the loop guard: a request already
// carrying the forwarded marker is served where it lands, even by a
// node that does not own its key.
func TestClusterForwardLoopGuard(t *testing.T) {
	f := newTestFleet(t, 2)
	spec := paperSpec(12)
	owner := f.ownerOf(t, spec)
	other := f.nonOwner(t, owner)
	status, data, servedBy := f.post(t, other, "/v1/blocking", BlockingRequest{SwitchSpec: spec},
		map[string]string{cluster.HeaderForwarded: owner})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if servedBy != other {
		t.Errorf("served by %q, want the non-owner %q (no re-forward)", servedBy, other)
	}
	if misses := f.srvs[other].metrics.cache.misses.Load(); misses != 1 {
		t.Errorf("non-owner misses = %d, want 1 (computed locally)", misses)
	}
	if fwd := f.srvs[other].cluster.Snapshot().Forwards; fwd != 0 {
		t.Errorf("non-owner forwarded %d requests under the loop guard", fwd)
	}
}

// TestClusterDeadPeerAtStartup: a fleet whose peer never existed (its
// port is closed). Requests owned by the dead node fail over to local
// compute — 200, answer bit-identical to single-node, failover counted.
func TestClusterDeadPeerAtStartup(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close() //lint:allow errcheck freeing the reserved port is the point

	live, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		NodeID: "live",
		Peers:  map[string]string{"live": "http://" + live.Addr().String(), "dead": deadURL},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.UseListener(live)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	go s.Serve() //lint:allow errcheck test server; Shutdown's error is the one that matters
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //lint:allow errcheck test teardown
	})

	// Find a spec the dead node owns.
	var spec SwitchSpec
	found := false
	for n := 4; n < 64 && !found; n++ {
		spec = paperSpec(n)
		sw, err := s.buildSwitchFor(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		found = s.cluster.Owner(cacheKey(alg1, sw)) == "dead"
	}
	if !found {
		t.Fatal("no spec owned by the dead node in the probed range")
	}

	_, single := newTestServer(t, Config{})
	var want, got BlockingResponse
	if code := postJSON(t, single, "/v1/blocking", BlockingRequest{SwitchSpec: spec}, &want); code != http.StatusOK {
		t.Fatalf("single-node status %d", code)
	}

	url := "http://" + s.Addr() + "/v1/blocking"
	buf, _ := json.Marshal(BlockingRequest{SwitchSpec: spec})
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close() //lint:allow errcheck body already read
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.LogG != want.LogG || got.Classes[0].Blocking != want.Classes[0].Blocking {
		t.Errorf("failover answer %+v differs from single-node %+v", got, want)
	}
	snap := s.cluster.Snapshot()
	if snap.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", snap.Failovers)
	}
	// Second request: the dead peer is now behind its backoff gate, so
	// the failover is immediate (skipped_down) and still correct.
	resp, err = http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //lint:allow errcheck only the status matters
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gated failover status %d", resp.StatusCode)
	}
	if sd := s.cluster.Snapshot().Peers["dead"].SkippedDown; sd != 1 {
		t.Errorf("skipped_down = %d, want 1", sd)
	}
}

// TestClusterPeerDiesMidRun: the owner node is killed after serving a
// key; the survivor then fails over to local compute for that key,
// fills it once and answers every later request from its own cache.
func TestClusterPeerDiesMidRun(t *testing.T) {
	f := newTestFleet(t, 2)
	spec := paperSpec(10)
	owner := f.ownerOf(t, spec)
	other := f.nonOwner(t, owner)
	req := BlockingRequest{SwitchSpec: spec}

	if status, data, _ := f.post(t, other, "/v1/blocking", req, nil); status != http.StatusOK {
		t.Fatalf("pre-kill status %d: %s", status, data)
	}
	f.stop(t, owner)
	status, data, servedBy := f.post(t, other, "/v1/blocking", req, nil)
	if status != http.StatusOK {
		t.Fatalf("post-kill status %d: %s", status, data)
	}
	if servedBy != other {
		t.Errorf("post-kill served by %q, want local %q", servedBy, other)
	}
	if fo := f.srvs[other].cluster.Snapshot().Failovers; fo != 1 {
		t.Errorf("failovers = %d, want 1", fo)
	}
	status, data, _ = f.post(t, other, "/v1/blocking", req, nil)
	if status != http.StatusOK {
		t.Fatalf("second post-kill status %d: %s", status, data)
	}
	var resp BlockingResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("second post-kill request not answered from the survivor's cache")
	}
	if misses := f.srvs[other].metrics.cache.misses.Load(); misses != 1 {
		t.Errorf("survivor misses = %d, want 1 (one fill of the lost key)", misses)
	}
	if fo := f.srvs[other].cluster.Snapshot().Failovers; fo != 2 {
		t.Errorf("failovers = %d, want 2", fo)
	}
}

// TestClusterSingleFlightAcrossNodes races concurrent identical
// requests against both nodes: forwarded and local arrivals must
// collapse onto one fill on the owner (fleet-wide misses == 1) and
// every response must carry the same measures.
func TestClusterSingleFlightAcrossNodes(t *testing.T) {
	f := newTestFleet(t, 2)
	spec := paperSpec(24)
	req := BlockingRequest{SwitchSpec: spec}
	const perNode = 4
	var wg sync.WaitGroup
	results := make(chan BlockingResponse, 2*perNode)
	for _, id := range f.ids {
		for i := 0; i < perNode; i++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				status, data, _ := f.post(t, id, "/v1/blocking", req, nil)
				if status != http.StatusOK {
					t.Errorf("node %s: status %d: %s", id, status, data)
					return
				}
				var br BlockingResponse
				if err := json.Unmarshal(data, &br); err != nil {
					t.Error(err)
					return
				}
				results <- br
			}(id)
		}
	}
	wg.Wait()
	close(results)
	var first *BlockingResponse
	for br := range results {
		if first == nil {
			b := br
			first = &b
			continue
		}
		if br.LogG != first.LogG || br.Classes[0].Blocking != first.Classes[0].Blocking {
			t.Errorf("response %+v differs from %+v", br, first)
		}
	}
	if got := f.fleetMisses(); got != 1 {
		t.Errorf("fleet-wide misses = %d, want 1", got)
	}
}

// TestClusterRollup exercises GET /v1/cluster: every member row
// present, fleet counters aggregated, unreachable members marked.
func TestClusterRollup(t *testing.T) {
	f := newTestFleet(t, 3)
	spec := paperSpec(16)
	for _, id := range f.ids {
		f.post(t, id, "/v1/blocking", BlockingRequest{SwitchSpec: spec}, nil)
	}
	var roll ClusterStatusResponse
	resp, err := http.Get(f.urls[f.ids[0]] + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&roll)
	resp.Body.Close() //lint:allow errcheck body already decoded
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollup status %d", resp.StatusCode)
	}
	if len(roll.Nodes) != 3 || roll.Fleet.Nodes != 3 || roll.Fleet.Reachable != 3 {
		t.Fatalf("rollup %+v", roll.Fleet)
	}
	if roll.Fleet.CacheMisses != 1 {
		t.Errorf("fleet cache misses = %d, want 1", roll.Fleet.CacheMisses)
	}
	if roll.Fleet.CacheHits < 2 {
		t.Errorf("fleet cache hits = %d, want >= 2", roll.Fleet.CacheHits)
	}
	if roll.Fleet.CacheHitRate <= 0 {
		t.Errorf("fleet hit rate = %v, want > 0", roll.Fleet.CacheHitRate)
	}
	// Kill a node: the rollup keeps answering, with the dead member
	// marked unreachable.
	f.stop(t, f.ids[2])
	resp, err = http.Get(f.urls[f.ids[0]] + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&roll)
	resp.Body.Close() //lint:allow errcheck body already decoded
	if err != nil {
		t.Fatal(err)
	}
	if roll.Fleet.Reachable != 2 {
		t.Errorf("reachable = %d after kill, want 2", roll.Fleet.Reachable)
	}
	for _, row := range roll.Nodes {
		if row.NodeID == f.ids[2] && (row.Reachable || row.Error == "") {
			t.Errorf("dead node row %+v, want unreachable with error", row)
		}
	}
}

// TestSharedHeaderValues: responses share prebuilt header value
// slices (contentTypeJSON, each node's X-Xbar-Node), so nothing on the
// response path may write into them. A local hit and a forwarded hit,
// on every node and over both keep-alive and fresh connections, leave
// each slice holding its one value, and the responses carry them.
func TestSharedHeaderValues(t *testing.T) {
	f := newTestFleet(t, 3)
	spec := paperSpec(10)
	owner := f.ownerOf(t, spec)
	other := f.nonOwner(t, owner)
	for _, id := range []string{owner, owner, other, other, owner} {
		status, data, servedBy := f.post(t, id, "/v1/blocking", BlockingRequest{SwitchSpec: spec}, nil)
		if status != http.StatusOK || servedBy != owner {
			t.Fatalf("node %s: status %d, served by %q (owner %q): %s", id, status, servedBy, owner, data)
		}
	}
	check := func(what string, v []string, want string) {
		t.Helper()
		if len(v) != 1 || cap(v) != 1 || v[0] != want {
			t.Errorf("%s: %q (cap %d), want [%q] (cap 1)", what, v, cap(v), want)
		}
	}
	check("contentTypeJSON", contentTypeJSON, "application/json")
	check("retryAfter1", retryAfter1, "1")
	for _, id := range f.ids {
		s := f.srvs[id]
		check(id+" nodeHeader", s.nodeHeader, id)
		for v, p := range s.peerValues {
			check(id+" peerValues", p, v)
		}
	}
	// A full one-element slice is copied by Add, never written into.
	h := http.Header{"Content-Type": contentTypeJSON}
	h.Add("Content-Type", "text/plain")
	check("contentTypeJSON after Header.Add", contentTypeJSON, "application/json")
}

// TestSingleNodeBitIdentity pins the no-peers contract: no cluster
// section in /metrics, no node header on responses, /v1/cluster 404 —
// the pre-cluster daemon's observable surface.
func TestSingleNodeBitIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	buf, _ := json.Marshal(BlockingRequest{SwitchSpec: paperSpec(8)})
	resp, err := http.Post(ts.URL+"/v1/blocking", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //lint:allow errcheck only headers matter
	if h := resp.Header.Get(cluster.HeaderNode); h != "" {
		t.Errorf("single-node response carries %s: %q", cluster.HeaderNode, h)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(mresp.Body)
	mresp.Body.Close() //lint:allow errcheck body already read
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["cluster"]; ok {
		t.Error("single-node /metrics carries a cluster section")
	}

	cresp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close() //lint:allow errcheck only the status matters
	if cresp.StatusCode != http.StatusNotFound {
		t.Errorf("single-node /v1/cluster status %d, want 404", cresp.StatusCode)
	}
}

// TestReadyz pins the readiness lifecycle: ready after New, draining
// (503) once shutdown begins, while /healthz stays 200 throughout.
func TestReadyz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //lint:allow errcheck only the status matters
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("ready /readyz %d, want 200", code)
	}
	s.draining.Store(true)
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("draining /healthz %d, want 200 (alive, not ready)", code)
	}
	s.draining.Store(false)
	s.ready.Store(false)
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("pre-ready /readyz %d, want 503", code)
	}
}

// TestClusterMetricsSection checks the clustered /metrics document
// carries the cluster family with per-peer rows.
func TestClusterMetricsSection(t *testing.T) {
	f := newTestFleet(t, 2)
	spec := paperSpec(16)
	owner := f.ownerOf(t, spec)
	other := f.nonOwner(t, owner)
	f.post(t, other, "/v1/blocking", BlockingRequest{SwitchSpec: spec}, nil)

	resp, err := http.Get(f.urls[other] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close() //lint:allow errcheck body already decoded
	if err != nil {
		t.Fatal(err)
	}
	cs := snap.Cluster
	if cs == nil {
		t.Fatal("clustered /metrics has no cluster section")
	}
	if cs.NodeID != other || cs.Forwards != 1 {
		t.Errorf("cluster section %+v, want node %s with 1 forward", cs, other)
	}
	ps, ok := cs.Peers[owner]
	if !ok || ps.Forwards != 1 || !ps.Healthy {
		t.Errorf("peer row %+v, want 1 healthy forward to %s", ps, owner)
	}
	if ps.Latency.Le100us+ps.Latency.Le1ms+ps.Latency.Le10ms+ps.Latency.Le100ms+
		ps.Latency.Le1s+ps.Latency.Le10s+ps.Latency.Over10s != 1 {
		t.Errorf("forward latency histogram %+v sums != 1", ps.Latency)
	}
}
