package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xbar/internal/cluster"
	"xbar/internal/scenario"
)

// Server is the xbard HTTP daemon: the API mux, the solver cache, the
// solve semaphore, and (optionally) a debug mux with net/http/pprof.
// Build one with New, then either Run it against a context (the
// daemon path: listens, serves, drains on cancel) or serve
// s.Handler() from a test harness.
type Server struct {
	cfg      Config
	metrics  *Metrics
	cache    *cache[*solverEntry]
	solvers  *solverPool
	scenario *scenario.Engine
	scCache  *cache[*scenario.Result]
	cluster  *cluster.Cluster // nil when cfg.Peers is empty
	sem      chan struct{}
	now      func() time.Time

	// Prebuilt header values (contentTypeJSON) in cluster mode:
	// nodeHeader is this node's X-Xbar-Node, for instrument, and
	// peerValues holds every member's node id and "application/json",
	// keyed by value, for the forward stage.
	nodeHeader []string
	peerValues map[string][]string

	// ready flips once ring membership is initialized (end of New);
	// draining flips when shutdown begins. GET /readyz serves 200 only
	// while ready && !draining, so peers and load balancers stop
	// routing to a node before its listener goes away.
	ready    atomic.Bool
	draining atomic.Bool

	mux      *http.ServeMux
	debugMux *http.ServeMux

	// The API listener is served by the serve loop (serve.go); httpSrv
	// serves the connections it hands off, through handoff.
	httpSrv      *http.Server
	debugSrv     *http.Server
	ln           net.Listener
	debugLn      net.Listener
	handoff      *handoffListener
	shuttingDown atomic.Bool // Shutdown has closed ln
	connsMu      sync.Mutex
	conns        map[*serveConn]struct{}
}

// New builds a Server from cfg (zero fields take their documented
// defaults).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Metrics{endpoints: make(map[string]*endpointMetrics)}
	solvers := &solverPool{recycled: &m.solversRecycled}
	s := &Server{
		cfg:     cfg,
		metrics: m,
		cache:   newCache(cfg.CacheSize, solvers.put, &m.cache),
		solvers: solvers,
		// The scenario engine keeps nothing across calls: scCache is
		// the path's only memo, bounded by ScenarioCacheSize and
		// counted in /metrics.
		scenario: scenario.New(scenario.Options{
			Limits: cfg.scenarioLimits(),
		}),
		scCache: newCache[*scenario.Result](cfg.ScenarioCacheSize, nil, &m.scCache),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		now:     time.Now, //lint:allow detrand wall-clock latency metrics; the analytical engine itself stays clock-free
	}
	if len(cfg.Peers) > 0 {
		cl, err := cluster.New(cfg.clusterConfig())
		if err != nil {
			return nil, err
		}
		s.cluster = cl
		s.peerValues = map[string][]string{"application/json": contentTypeJSON}
		for _, id := range cl.Nodes() {
			s.peerValues[id] = []string{id}
		}
		s.nodeHeader = s.peerValues[cl.NodeID()]
	}
	s.mux = http.NewServeMux()
	lim := wireLimits{classes: cfg.MaxClasses, sweepPoints: cfg.MaxSweepPoints, gridPoints: cfg.MaxGridPoints}
	for _, rt := range []struct {
		pattern string
		h       endpoint
	}{
		{"POST /v1/blocking", post(strict(blockingWire, lim), s.handleBlocking)},
		{"POST /v1/revenue", post(strict(revenueWire, lim), s.handleRevenue)},
		{"POST /v1/admission", post(strict(admissionWire, lim), s.handleAdmission)},
		{"POST /v1/sweep", post(strict(sweepWire, lim), s.handleSweep)},
		{"POST /v1/grid", post(strict(gridWire, lim), s.handleGrid)},
		{"POST /v1/scenario", post(decodeScenario, s.handleScenario)},
		{"GET /v1/cluster", s.handleCluster},
		{"GET /healthz", s.handleHealthz},
		{"GET /readyz", s.handleReadyz},
		{"GET /metrics", s.handleMetrics},
	} {
		_, path, _ := strings.Cut(rt.pattern, " ")
		m.endpoints[path] = new(endpointMetrics)
		s.mux.Handle(rt.pattern, s.instrument(path, s.serve(rt.h)))
	}

	s.debugMux = http.NewServeMux()
	s.debugMux.HandleFunc("/debug/pprof/", pprof.Index)
	s.debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.debugMux.Handle("GET /metrics", s.instrument("/metrics", s.serve(s.handleMetrics)))
	// Ring membership (when any) is initialized above; the node is ready
	// to take traffic as soon as a listener exists.
	s.ready.Store(true)
	return s, nil
}

// Handler returns the API mux — the httptest entry point.
func (s *Server) Handler() http.Handler { return s.mux }

// DebugHandler returns the pprof/metrics debug mux.
func (s *Server) DebugHandler() http.Handler { return s.debugMux }

// Metrics exposes the counter set (tests and embedding callers).
func (s *Server) Metrics() *Metrics { return s.metrics }

// statusWriter records the response status for metrics and guards the
// panic-recovery path against writing a second header. cancel is
// instrument's cancel for the request's context, which the serve
// loop's hang-up watcher calls (call.acquire).
type statusWriter struct {
	http.ResponseWriter
	code   int
	wrote  bool
	cancel context.CancelFunc
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// handlerFunc is a handler returning its failure as an error (serve
// adapts an endpoint to it); instrument turns *apiError into the
// client-facing JSON error and anything else (including a panic) into
// a 500.
type handlerFunc func(http.ResponseWriter, *http.Request) error

// instrument wraps an endpoint with the per-request machinery:
// in-flight gauge, latency histogram, request timeout, error
// rendering and panic recovery.
func (s *Server) instrument(name string, h handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		s.metrics.inFlight.Add(1)
		if s.cluster != nil {
			// Which node actually served — cluster tooling reads this to
			// find a key's owner. Absent in single-node mode so responses
			// stay bit-identical to the pre-cluster daemon.
			w.Header()[cluster.HeaderNode] = s.nodeHeader
		}
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				s.cfg.logf("panic serving %s: %v", name, p)
				if !sw.wrote {
					s.writeError(sw, http.StatusInternalServerError, "internal error")
				}
				sw.code = http.StatusInternalServerError
			}
			s.metrics.inFlight.Add(-1)
			s.metrics.observe(name, s.now().Sub(start), sw.code >= 400)
		}()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		sw.cancel = cancel
		if err := h(sw, r.WithContext(ctx)); err != nil {
			var api *apiError
			if errors.As(err, &api) {
				if api.code == http.StatusServiceUnavailable {
					// Overloaded or draining: both pass within a second
					// or send the client elsewhere.
					sw.Header()["Retry-After"] = retryAfter1
				}
				s.writeJSON(sw, api.code, api.document())
				return
			}
			s.cfg.logf("error serving %s: %v", name, err)
			s.writeError(sw, http.StatusInternalServerError, "internal error")
		}
	})
}

// Prebuilt response header values, assigned under their canonical
// keys so that setting one costs no allocation (Header.Set builds a
// new one-element slice per call). Nothing writes into them:
// Header.Set replaces a slice, and Header.Add on a full one-element
// slice copies it.
var (
	contentTypeJSON = []string{"application/json"}
	retryAfter1     = []string{"1"}
)

// encodeBufs recycles writeJSON's encode buffers.
var encodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// internalErrorBody is the 500 document writeJSON sends when a
// response cannot be encoded: writeError's rendering of
// "internal error", spelled out so the fallback cannot fail in turn.
const internalErrorBody = `{"error":"internal error"}` + "\n"

// declareLengthAbove is the body size above which writeJSON declares
// Content-Length itself. net/http declares the length of a body that
// fits its 2 KiB response buffer and chunks a larger one; declaring
// the length of a small body would cost two allocations for nothing.
const declareLengthAbove = 1 << 10

// writeJSON renders one response document: a solve response through
// its append encoder (appendResponse), anything else and anything
// outside the encoder's subset through encoding/json. The document is
// encoded in full before the status goes out, so a value JSON cannot
// carry (a NaN or an infinity) turns into a 500 with an error
// document, which the endpoint's error counter sees, instead of a 2xx
// with a truncated body, and every response carries its
// Content-Length, never a chunked body. A failed write usually means
// the client hung up; it is counted, not propagated.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	buf := encodeBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		encodeBufs.Put(buf)
	}()
	if b, ok := appendResponse(buf.AvailableBuffer(), v); ok {
		buf.Write(b)
	} else if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.cfg.logf("encode %T response: %v", v, err)
		code = http.StatusInternalServerError
		buf.Reset()
		buf.WriteString(internalErrorBody)
	}
	w.Header()["Content-Type"] = contentTypeJSON
	if buf.Len() > declareLengthAbove {
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	}
	w.WriteHeader(code)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.metrics.writeFailures.Add(1)
	}
}

// writeError renders the {"error": ...} document.
func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, map[string]string{"error": msg})
}

// acquire claims a solve slot, giving up when ctx expires. Cache
// fills, scenario evaluations and exact-tier gradient re-solves each
// hold one.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// UseListener hands the server a pre-bound API listener; Start then
// skips binding cfg.Addr. Cluster tests need this: peer URLs must be
// known (so ports bound) before the servers are constructed.
func (s *Server) UseListener(ln net.Listener) { s.ln = ln }

// Start binds the listeners (API, and debug when configured) without
// serving yet, so callers learn the bound addresses — and tests can
// listen on port 0 — before traffic arrives.
func (s *Server) Start() error {
	ln := s.ln
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", s.cfg.Addr)
		if err != nil {
			return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
		}
	}
	s.ln = ln
	s.handoff = newHandoffListener(ln.Addr())
	s.conns = make(map[*serveConn]struct{})
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	if s.cfg.DebugAddr != "" {
		dln, err := net.Listen("tcp", s.cfg.DebugAddr)
		if err != nil {
			closeErr := ln.Close()
			return errors.Join(fmt.Errorf("server: listen debug %s: %w", s.cfg.DebugAddr, err), closeErr)
		}
		s.debugLn = dln
		// No ReadHeaderTimeout here: pprof profile/trace captures are
		// long-polling by design.
		s.debugSrv = &http.Server{Handler: s.debugMux}
	}
	return nil
}

// Addr returns the bound API address after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// DebugAddr returns the bound debug address after Start ("" when the
// debug mux is disabled).
func (s *Server) DebugAddr() string {
	if s.debugLn == nil {
		return ""
	}
	return s.debugLn.Addr().String()
}

// Serve blocks serving both listeners until Shutdown (returning nil)
// or a listener failure (returning its error). Start must have
// succeeded. The API listener runs on the serve loop, with httpSrv
// behind it for the connections the loop hands off.
func (s *Server) Serve() error {
	errc := make(chan error, 3)
	go func() { errc <- s.httpSrv.Serve(s.handoff) }()
	go func() {
		err := s.serveLoop()
		errc <- err // first, so that Serve reports it over the handoff's close
		if !errors.Is(err, http.ErrServerClosed) {
			s.handoff.Close() //lint:allow errcheck closing a channel listener cannot fail
		}
	}()
	n := 2
	if s.debugSrv != nil {
		n = 3
		go func() { errc <- s.debugSrv.Serve(s.debugLn) }()
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) && first == nil {
			first = err
		}
	}
	return first
}

// Shutdown drains both servers gracefully: no new connections,
// idle ones closed, in-flight requests run to completion within ctx,
// on the serve loop and on the connections it handed off. /readyz
// flips to 503 first, so ready-checking peers and balancers stop
// routing here while the drain runs.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var errs []error
	if s.httpSrv != nil {
		errs = append(errs, s.drainLoop(ctx), s.httpSrv.Shutdown(ctx))
	}
	if s.debugSrv != nil {
		errs = append(errs, s.debugSrv.Shutdown(ctx))
	}
	s.Close()
	return errors.Join(errs...)
}

// Close releases background resources (the cluster layer's idle peer
// connections). Shutdown calls it; handler-only callers (tests serving
// s.Handler() directly) should call it themselves when done. Safe to
// call more than once and without a cluster.
func (s *Server) Close() {
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// Run is the daemon loop: Start (unless already started), serve until
// ctx is cancelled, then drain within the configured DrainTimeout.
// Returns nil after a clean drain.
func (s *Server) Run(ctx context.Context) error {
	if s.ln == nil {
		if err := s.Start(); err != nil {
			return err
		}
	}
	s.cfg.logf("xbard: listening on %s", s.Addr())
	if a := s.DebugAddr(); a != "" {
		s.cfg.logf("xbard: debug (pprof, metrics) on %s", a)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	s.cfg.logf("xbard: draining (timeout %v)", s.cfg.DrainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	if err := <-serveErr; err != nil {
		return err
	}
	s.cfg.logf("xbard: drained cleanly")
	return nil
}
