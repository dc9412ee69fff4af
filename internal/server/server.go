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
	"sync"
	"sync/atomic"
	"time"

	"xbar/internal/cluster"
	"xbar/internal/grid"
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
	cache    *solverCache
	scenario *scenario.Engine
	scCache  *scenarioCache
	cluster  *cluster.Cluster // nil when cfg.Peers is empty
	sem      chan struct{}
	now      func() time.Time

	// ready flips once ring membership is initialized (end of New);
	// draining flips when shutdown begins. GET /readyz serves 200 only
	// while ready && !draining, so peers and load balancers stop
	// routing to a node before its listener goes away.
	ready    atomic.Bool
	draining atomic.Bool

	mux      *http.ServeMux
	debugMux *http.ServeMux

	httpSrv  *http.Server
	debugSrv *http.Server
	ln       net.Listener
	debugLn  net.Listener
}

// endpointNames are the instrumented endpoints, as they appear in the
// metrics document.
var endpointNames = []string{
	"/v1/blocking", "/v1/revenue", "/v1/admission", "/v1/sweep", "/v1/grid", "/v1/scenario", "/v1/cluster",
	"/healthz", "/readyz", "/metrics",
}

// New builds a Server from cfg (zero fields take their documented
// defaults).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := newMetrics(endpointNames...)
	s := &Server{
		cfg:     cfg,
		metrics: m,
		cache:   newSolverCache(cfg.CacheSize, cfg.fillOptions(), m),
		// The scenario engine runs memo-less: the server-side result
		// cache (LRU + single-flight) is the memo, and caching twice
		// would pin every evicted result forever.
		scenario: scenario.New(scenario.Options{
			NoMemo: true,
			Limits: cfg.scenarioLimits(),
			Grid:   grid.Options{Workers: cfg.Workers, Tile: cfg.Tile},
		}),
		scCache: newScenarioCache(cfg.ScenarioCacheSize, m),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		now:     time.Now, //lint:allow detrand wall-clock latency metrics; the analytical engine itself stays clock-free
	}
	if len(cfg.Peers) > 0 {
		cl, err := cluster.New(cfg.clusterConfig())
		if err != nil {
			return nil, err
		}
		s.cluster = cl
	}
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/blocking", s.instrument("/v1/blocking", s.handleBlocking))
	s.mux.Handle("POST /v1/revenue", s.instrument("/v1/revenue", s.handleRevenue))
	s.mux.Handle("POST /v1/admission", s.instrument("/v1/admission", s.handleAdmission))
	s.mux.Handle("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	s.mux.Handle("POST /v1/grid", s.instrument("/v1/grid", s.handleGrid))
	s.mux.Handle("POST /v1/scenario", s.instrument("/v1/scenario", s.handleScenario))
	s.mux.Handle("GET /v1/cluster", s.instrument("/v1/cluster", s.handleCluster))
	s.mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.Handle("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))

	s.debugMux = http.NewServeMux()
	s.debugMux.HandleFunc("/debug/pprof/", pprof.Index)
	s.debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.debugMux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
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
// panic-recovery path against writing a second header.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
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

// handlerFunc is an endpoint handler returning its failure as an
// error; instrument turns *apiError into the client-facing JSON error
// and anything else (including a panic) into a 500.
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
			w.Header().Set(cluster.HeaderNode, s.cluster.NodeID())
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
		if err := h(sw, r.WithContext(ctx)); err != nil {
			var api *apiError
			if errors.As(err, &api) {
				s.writeError(sw, api.code, api.msg)
				return
			}
			s.cfg.logf("error serving %s: %v", name, err)
			s.writeError(sw, http.StatusInternalServerError, "internal error")
		}
	})
}

// encodeBufs recycles writeJSON's encode buffers.
var encodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// internalErrorBody is the 500 document writeJSON sends when a
// response cannot be encoded: writeError's rendering of
// "internal error", spelled out so the fallback cannot fail in turn.
const internalErrorBody = `{"error":"internal error"}` + "\n"

// writeJSON renders one response document. The document is encoded in
// full before the status goes out, so a value JSON cannot carry (a NaN
// or an infinity) turns into a 500 with an error document, which the
// endpoint's error counter sees, instead of a 2xx with a truncated
// body. A failed write usually means the client hung up; it is
// counted, not propagated.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	buf := encodeBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		encodeBufs.Put(buf)
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.cfg.logf("encode %T response: %v", v, err)
		code = http.StatusInternalServerError
		buf.Reset()
		buf.WriteString(internalErrorBody)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.metrics.writeFailures.Add(1)
	}
}

// writeError renders the {"error": ...} document.
func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, map[string]string{"error": msg})
}

// acquire claims a solver slot, giving up when ctx expires.
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
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
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
// succeeded.
func (s *Server) Serve() error {
	errc := make(chan error, 2)
	go func() { errc <- s.httpSrv.Serve(s.ln) }()
	n := 1
	if s.debugSrv != nil {
		n = 2
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
// in-flight requests run to completion within ctx. /readyz flips to
// 503 first, so ready-checking peers and balancers stop routing here
// while the drain runs.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var errs []error
	if s.httpSrv != nil {
		errs = append(errs, s.httpSrv.Shutdown(ctx))
	}
	if s.debugSrv != nil {
		errs = append(errs, s.debugSrv.Shutdown(ctx))
	}
	s.Close()
	return errors.Join(errs...)
}

// Close releases background resources (the cluster replication
// worker). Shutdown calls it; handler-only callers (tests serving
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
