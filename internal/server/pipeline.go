package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"xbar/internal/cluster"
	"xbar/internal/core"
	"xbar/internal/scenario"
)

// The request pipeline. Every endpoint runs as
//
//	instrument → [post: read body → decode] → endpoint → encode
//
// and an endpoint that needs the exact tier continues through
//
//	key → forward → fetch (acquire a solve slot, fill, read) → encode.
//
// The endpoint itself supplies its request type, its validation, its
// key(s) and its read; the stages are written once, here. An
// asymptotic answer leaves before the key stage, so it is never
// forwarded; a forwarded request leaves at the forward stage with the
// owner's response written verbatim.

// call is one request inside the pipeline. It travels by value: the
// writer and request it carries already live on the heap.
type call struct {
	s    *Server
	w    http.ResponseWriter
	r    *http.Request
	body []byte // the raw POST body, forwarded verbatim
}

// endpoint is an endpoint's own stage. It returns the 200 document, a
// nil document when the response is already written (forwarded), or
// an error for instrument to render.
type endpoint func(c call) (doc any, err error)

// serve is the pipeline's encode stage: it runs the endpoint and
// writes its document.
func (s *Server) serve(h endpoint) handlerFunc {
	return func(w http.ResponseWriter, r *http.Request) error {
		doc, err := h(call{s: s, w: w, r: r})
		if err != nil || doc == nil {
			return err
		}
		s.writeJSON(w, http.StatusOK, doc)
		return nil
	}
}

// post is the pipeline's first stage for a POST endpoint: it reads
// the body whole under the size cap (the forward stage proxies the raw
// bytes) and decodes it into the endpoint's request type.
func post[Req any](decode func([]byte) (*Req, error), h func(call, *Req) (any, error)) endpoint {
	return func(c call) (any, error) {
		c.r.Body = http.MaxBytesReader(c.w, c.r.Body, c.s.cfg.MaxBodyBytes)
		body, err := readBody(c.r.Body, c.r.ContentLength, c.s.cfg.MaxBodyBytes)
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return nil, &apiError{code: http.StatusRequestEntityTooLarge,
					msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
			}
			return nil, badRequest("reading body: %v", err)
		}
		req, err := decode(body)
		if err != nil {
			return nil, err
		}
		c.body = body
		return h(c, req)
	}
}

// readBody reads a request body whole. A declared Content-Length within
// the cap sizes the buffer once, so a body at the cap costs one
// allocation of its size, where io.ReadAll's growth series would cost
// five.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	size := int64(512)
	if declared >= 0 && declared <= limit {
		size = declared + 1 // room for the read that reports io.EOF
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// decodeScenario decodes a /v1/scenario spec (scenario.Decode's
// strictness); every decode failure is a 400.
func decodeScenario(data []byte) (*scenario.Spec, error) {
	spec, err := scenario.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, badRequest("invalid JSON: %v", err)
	}
	return spec, nil
}

// model is the pipeline's build stage: the request's dispatch policy,
// then its switch validated under that policy.
func (s *Server) model(spec SwitchSpec, d DispatchSpec) (core.Switch, *core.DispatchOptions, error) {
	opt, err := s.parseDispatch(d)
	if err != nil {
		return core.Switch{}, nil, err
	}
	sw, err := s.buildSwitchFor(spec, opt)
	return sw, opt, err
}

// exact is the exact tier's key, forward and fetch stages for the
// solver cache. It keys each lattice once (algorithm alg filled for
// sws[i]) and reads lattice i with read; a filled lattice is
// read-only, so read takes no lock. It reports false when the request
// was forwarded: the owner's response is written, and the endpoint
// returns a nil document.
func (c call) exact(alg string, sws []core.Switch, read func(i int, e *solverEntry, cached bool) error) (bool, error) {
	var stack [4]string
	keys := stack[:0]
	for _, sw := range sws {
		keys = append(keys, cacheKey(alg, sw))
	}
	return through(c, c.s.cache, keys,
		func(i int) (*solverEntry, error) { return c.s.solvers.fill(alg, sws[i]) },
		read,
		func(err error) error { return unprocessable("%v", err) })
}

// through is the forward and fetch stages over either cache. When one
// peer owns every key the request is proxied there and through reports
// false. Otherwise each key is fetched in turn and read. failed maps a
// fill error that is neither a client error nor a context expiry.
func through[V any](c call, ch *cache[V], keys []string, fill func(i int) (V, error),
	read func(i int, v V, cached bool) error, failed func(error) error) (bool, error) {
	if c.forward(keys) {
		return false, nil
	}
	for i, key := range keys {
		if err := fetch(c, ch, key, i, fill, read, failed); err != nil {
			return true, err
		}
	}
	return true, nil
}

// fetch is the pipeline's one way into a cache: it resolves key,
// filling it on a miss, runs read on the value and releases it. The
// fill takes a solve slot: the semaphore bounds lattice fills (the
// CPU-heavy part), while hits and requests sharing another's fill pass
// straight through. A read that re-solves (revenue gradients) takes a
// slot of its own. The value never escapes read: whatever the response
// keeps is copied out of it, and encoding runs after fetch returns.
func fetch[V any](c call, ch *cache[V], key string, i int, fill func(i int) (V, error),
	read func(i int, v V, cached bool) error, failed func(error) error) error {
	ctx := c.r.Context()
	h, cached, err := ch.get(ctx, key, func() (V, error) {
		release, err := c.acquire()
		if err != nil {
			var zero V
			return zero, overloaded(err)
		}
		defer release()
		return fill(i)
	})
	if err != nil {
		var api *apiError
		switch {
		case errors.As(err, &api), errors.Is(err, errFillPanicked):
			return err // errFillPanicked renders as a 500
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return overloaded(err)
		}
		return failed(err)
	}
	defer ch.release(h)
	return read(i, h.v, cached)
}

// acquire claims a solve slot for the request (Server.acquire). Every
// solve-slot wait on the request path comes through here. On the serve
// loop it first starts the connection's hang-up watcher
// (responseWriter.watch), so a client that hangs up ends the wait; a
// request that never waits for a slot, a hit, a forward or an
// asymptotic answer, starts no goroutine.
func (c call) acquire() (release func(), err error) {
	if sw, ok := c.w.(*statusWriter); ok {
		if rw, ok := sw.ResponseWriter.(*responseWriter); ok {
			rw.watch(sw.cancel)
		}
	}
	return c.s.acquire(c.r.Context())
}

// overloaded maps context expiry (solve-slot or single-flight wait)
// onto 503 so load balancers retry elsewhere.
func overloaded(err error) error {
	return &apiError{code: http.StatusServiceUnavailable, msg: fmt.Sprintf("overloaded: %v", err)}
}

// forward is the ownership check of the exact tier, after validation
// and before the cache: when every key the request resolves to is
// owned by one peer, the whole request is proxied there and the peer's
// response written verbatim (returning true — the response is
// complete). In every other case it returns false and the request is
// served locally:
//
//   - single-node mode (no cluster) — the stage is disabled;
//   - this node owns the keys;
//   - mixed ownership across keys (multi-group /v1/grid) — local
//     compute is correct, it just deduplicates less;
//   - the request carries the forwarded marker — the loop guard:
//     proxied requests are served where they land, so a skewed ring
//     view costs one extra hop, never a cycle;
//   - the owner is down or erroring — counted as a failover, served
//     locally: a dead peer degrades to single-node behavior, never to
//     a client-facing error.
func (c call) forward(keys []string) bool {
	cl := c.s.cluster
	if cl == nil || len(keys) == 0 {
		return false
	}
	if c.r.Header.Get(cluster.HeaderForwarded) != "" {
		cl.Metrics().RecordForwardedServed()
		return false
	}
	owner := cl.Owner(keys[0])
	for _, k := range keys[1:] {
		if cl.Owner(k) != owner {
			owner = cl.NodeID() // mixed ownership: serve locally
			break
		}
	}
	if owner == cl.NodeID() {
		return false
	}
	res, err := cl.Forward(c.r.Context(), owner, c.r.URL.Path, c.body)
	if err != nil {
		cl.Metrics().RecordFailover()
		c.s.cfg.logf("cluster: forward %s to %s failed (%v); serving locally", c.r.URL.Path, owner, err)
		return false
	}
	hdr := c.w.Header()
	if res.ContentType != "" {
		hdr["Content-Type"] = c.s.headerValue(res.ContentType)
	}
	if res.ServedBy != "" {
		hdr[cluster.HeaderNode] = c.s.headerValue(res.ServedBy)
	}
	if len(res.Body) > declareLengthAbove {
		hdr.Set("Content-Length", strconv.Itoa(len(res.Body)))
	}
	c.w.WriteHeader(res.Status)
	if _, err := c.w.Write(res.Body); err != nil {
		c.s.metrics.writeFailures.Add(1)
	}
	return true
}

// headerValue returns v as a header value: the prebuilt slice when v
// is a member's node id or "application/json", else a new one.
func (s *Server) headerValue(v string) []string {
	if p, ok := s.peerValues[v]; ok {
		return p
	}
	return []string{v}
}
