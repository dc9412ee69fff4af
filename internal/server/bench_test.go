package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// BenchmarkForwardedVsLocalHit prices the forwarding hop: the same
// warm cache hit served locally by the key's owner versus proxied to
// the owner from a non-owner peer (one extra loopback HTTP round trip
// over a pooled peer connection). The gap is the per-request cost of
// consistent-hash ownership; docs/PERFORMANCE.md §10 tracks it.
func BenchmarkForwardedVsLocalHit(b *testing.B) {
	if testing.Short() {
		// At -benchtime 1x the single request measures fleet boot,
		// transport dial and first-touch costs, not a warm hit — noise
		// the bench-short gate would misread as a regression.
		b.Skip("request-level benchmark is warmup-dominated at one iteration")
	}
	f := newTestFleet(b, 2)
	spec := paperSpec(16)
	owner := f.ownerOf(b, spec)
	other := f.nonOwner(b, owner)
	// One real fill, so both paths below are pure cache hits.
	if st, _, _ := f.post(b, owner, "/v1/blocking", spec, nil); st != 200 {
		b.Fatalf("warm fill: status %d", st)
	}
	for _, bc := range []struct {
		name string
		id   string
	}{{"local", owner}, {"forwarded", other}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if st, _, _ := f.post(b, bc.id, "/v1/blocking", spec, nil); st != 200 {
					b.Fatalf("status %d", st)
				}
			}
		})
	}
}

// BenchmarkClusterAggregateHitRate drives a zipf-ish repeated workload
// (8 distinct switches, requests round-robined across a 3-node fleet)
// and reports the fleet-wide aggregate hit rate as hits/op. With
// consistent-hash ownership every distinct key fills exactly once
// fleet-wide, so the aggregate hit rate approaches 1 - 8/requests;
// without forwarding each node would fill its own copy (3x the misses
// and a hit rate flat in node count — the regression this PR removes).
func BenchmarkClusterAggregateHitRate(b *testing.B) {
	if testing.Short() {
		// One iteration is one request — a guaranteed miss plus fleet
		// boot; there is no hit rate to measure.
		b.Skip("hit-rate benchmark is meaningless at one iteration")
	}
	f := newTestFleet(b, 3)
	specs := make([]SwitchSpec, 8)
	for i := range specs {
		specs[i] = paperSpec(4 + 2*i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := f.ids[i%len(f.ids)]
		if st, _, _ := f.post(b, id, "/v1/blocking", specs[i%len(specs)], nil); st != 200 {
			b.Fatalf("status %d", st)
		}
	}
	b.StopTimer()
	var hits, misses int64
	for _, s := range f.srvs {
		hits += s.metrics.cache.hits.Load() + s.metrics.cache.shared.Load()
		misses += s.metrics.cache.misses.Load()
	}
	if misses > int64(len(specs)) {
		b.Fatalf("fleet misses = %d, want <= %d (one fill per distinct key)", misses, len(specs))
	}
	b.ReportMetric(float64(hits)/float64(hits+misses), "hitrate")
}

// BenchmarkWarmHit serves a warm request per endpoint through the
// handler in process (httptest request and recorder included), the
// unit for A/B-ing the request path without a network.
func BenchmarkWarmHit(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for _, hb := range hotBodies {
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, hb.path, strings.NewReader(hb.body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("%s: status %d: %s", hb.path, rec.Code, rec.Body.Bytes())
			}
		}
		b.Run(strings.TrimPrefix(hb.path, "/v1/"), func(b *testing.B) {
			serve()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

// missFillBody is the i-th BenchmarkMissFill request: a /v1/blocking
// miss at N1, N2 in 160..192 with two or three classes (Poisson, then
// Pascal, then a wide Poisson), alternating Algorithm 1 and Algorithm
// 2. The i-dependent offset on the first class's alpha makes every
// body a distinct cache key.
func missFillBody(i int) string {
	alg := []string{alg1, alg2}[(i/2)%2]
	classes := fmt.Sprintf(`{"a":1,"alpha":%v,"mu":1},{"a":2,"alpha":0.004,"beta":0.001,"mu":0.5}`, 0.02+float64(i)*1e-9)
	if i%2 == 1 {
		classes += `,{"a":3,"alpha":0.0005,"mu":1}`
	}
	return fmt.Sprintf(`{"n1":%d,"n2":%d,"algorithm":%q,"classes":[%s]}`, 160+i*7%33, 160+i*13%33, alg, classes)
}

// BenchmarkMissFill serves a cache miss per iteration through the
// handler in process: a full lattice fill of a miss-fill-sized model
// on a recycled solver. The cache holds 4 entries and is filled before
// the timer starts, so every timed miss evicts an entry into the
// solver pool and the next miss of that algorithm refills it in place.
// B/op and allocs/op price what a miss allocates beyond the lattice
// it recycles.
func BenchmarkMissFill(b *testing.B) {
	s, err := New(Config{CacheSize: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	const warm = 8
	bodies := make([]string, warm+b.N)
	for i := range bodies {
		bodies[i] = missFillBody(i)
	}
	serve := func(body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/blocking", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	for _, body := range bodies[:warm] {
		serve(body)
	}
	misses, recycled := s.metrics.cache.misses.Load(), s.metrics.solversRecycled.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for _, body := range bodies[warm:] {
		serve(body)
	}
	b.StopTimer()
	if got := s.metrics.cache.misses.Load() - misses; got != int64(b.N) {
		b.Fatalf("%d misses in %d requests", got, b.N)
	}
	if got := s.metrics.solversRecycled.Load() - recycled; got != int64(b.N) {
		b.Fatalf("%d recycled fills in %d misses", got, b.N)
	}
}

// BenchmarkWarmHitSocket sends one warm /v1/blocking hit per iteration
// over a raw keep-alive loopback connection to a started Server: the
// in-process pipeline of BenchmarkWarmHit plus the transport, socket
// syscalls included. The client writes prebuilt request bytes and
// reads the answer into a reused buffer, so allocs/op are the
// server's.
func BenchmarkWarmHitSocket(b *testing.B) {
	s, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			b.Error(err)
		}
		if err := <-served; err != nil {
			b.Error(err)
		}
	}()
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close() //lint:allow errcheck benchmark teardown
	body := hotBodies[0].body
	req := []byte("POST /v1/blocking HTTP/1.1\r\nHost: " + s.Addr() + "\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + body)
	br := bufio.NewReader(nc)
	buf := make([]byte, 4096)
	hit := func() {
		if _, err := nc.Write(req); err != nil {
			b.Fatal(err)
		}
		status, length := "", -1
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				b.Fatal(err)
			}
			switch {
			case status == "":
				status = string(line[:min(len(line), 12)])
			case len(line) == 2:
				if status != "HTTP/1.1 200" || length < 0 || length > len(buf) {
					b.Fatalf("status %q, Content-Length %d", status, length)
				}
				if _, err := io.ReadFull(br, buf[:length]); err != nil {
					b.Fatal(err)
				}
				return
			case bytes.HasPrefix(line, []byte("Content-Length: ")):
				length, err = strconv.Atoi(string(bytes.TrimSpace(line[len("Content-Length: "):])))
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	hit() // the fill
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}
