// Package grid evaluates batches ("grids") of closely related switch
// models: the figure curve families of the paper's numerical section,
// the admission optimizer's candidate sweeps, and the re-solves of the
// reduced-load fixed point (internal/network) are all grids in which
// many points share most — often all — of their structure. A naive
// driver pays a fresh O(N1 N2 R) Algorithm 1 lattice fill per point;
// the engine here recognizes the sharing and pays for each distinct
// lattice exactly once, without changing a single output bit.
//
// # What can be shared exactly
//
// The Eq. 10 recursion couples every class at every lattice cell (each
// Q(n) accumulates one term per class), so there is no class-partial
// lattice that could be re-filled for "just the class that moved"
// while staying bit-identical to a fresh fill — the per-class
// factorization the convolution evaluator enjoys lives on the
// occupancy axis and rounds differently. Likewise the classes cannot
// be reordered into a canonical order: the accumulation order enters
// the floating-point rounding. What Algorithm 1 does admit, exactly:
//
//   - Parameter invariance. The lattice and every measure except
//     Throughput depend on a class only through (a_r, the
//     Poisson/bursty split, rho_r = alpha_r/mu_r, beta_r/mu_r).
//     Class names, and the (alpha, mu) factorization of rho, never
//     enter the numerics. Two models equal under that canonical key
//     are the same computation.
//   - Sub-lattice sharing. The recursion is lower-triangular, so a
//     sub-lattice of one big fill is bit-identical to a fresh fill of
//     the smaller switch with the same per-route classes (the
//     core.SweepSolver property). Points that differ only in their
//     dimensions share one fill at the componentwise maximum.
//
// The engine canonicalizes each point, deduplicates equal points,
// groups the survivors by class key so each group pays one fill at its
// maximum dimensions, and memoizes results across Solve calls — which
// is what turns the fixed point's iterated re-solves of symmetric or
// load-stable switches into map lookups. Points whose delta structure
// permits no reuse (a unique class set at a unique size) fall back to
// a full fill of their own, through the same pooled solvers. Both
// paths are pinned bit-identical to fresh core.Solve by the package's
// property tests.
//
// Scheduling: group fills run on a work-stealing pool (workers claim
// groups from a shared queue) over Reuse-recycled solvers; each fill
// picks its own schedule from its lattice size (core.Solver).
package grid

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

	"xbar/internal/core"
	"xbar/internal/parallel"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds the pool of concurrent group fills. Zero selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// NoMemo disables canonicalization, deduplication, grouping and
	// the cross-call memo: every point pays a full lattice fill of its
	// own, through the same pooled solvers. This is the engine's
	// fallback path made total — the property tests pin it and the
	// memoized path bit-identical, and the benchmarks use it as the
	// per-point baseline.
	NoMemo bool
}

// Stats is the engine's lifetime accounting, the raw material of the
// memoization-hit-rate tables in docs/PERFORMANCE.md. Points =
// MemoHits + BatchHits + Unique, and Fills <= Unique (grouping packs
// several unique sizes into one fill).
type Stats struct {
	// Points is the number of points submitted to Solve.
	Points int
	// Unique is the number of distinct canonical models solved.
	Unique int
	// Fills is the number of lattice fills actually run.
	Fills int
	// BatchHits counts points served by an equal point of the same
	// Solve call (e.g. the fixed point's symmetric switches).
	BatchHits int
	// MemoHits counts points served by an earlier Solve call (e.g. a
	// switch whose thinned load did not move between fixed-point
	// iterations).
	MemoHits int
}

// HitRate reports the fraction of points that did not pay a lattice
// fill of their own.
func (s Stats) HitRate() float64 {
	if s.Points == 0 {
		return 0
	}
	return 1 - float64(s.Fills)/float64(s.Points)
}

// memoResult is one canonical point's stored measures. The slices are
// owned by the memo; clones copy them so callers can never corrupt a
// shared entry.
type memoResult struct {
	method                             string
	logG                               float64
	nonBlocking, blocking, concurrency []float64
}

func newMemoResult(r *core.Result) *memoResult {
	return &memoResult{
		method:      r.Method,
		logG:        r.LogG,
		nonBlocking: r.NonBlocking,
		blocking:    r.Blocking,
		concurrency: r.Concurrency,
	}
}

// clone materializes the memoized measures for one concrete point.
// The Switch is the point's own (not the canonical representative's),
// so mu-dependent reads — Result.Throughput — see the point's rates.
func (m *memoResult) clone(sw core.Switch) *core.Result {
	return &core.Result{
		Switch:      sw,
		Method:      m.method,
		LogG:        m.logG,
		NonBlocking: append([]float64(nil), m.nonBlocking...),
		Blocking:    append([]float64(nil), m.blocking...),
		Concurrency: append([]float64(nil), m.concurrency...),
	}
}

// maxMemoEntries bounds the cross-call memo. A fixed point touches a
// few new operating points per iteration and a figure grid a few
// hundred in total, so the bound exists only to keep a pathological
// caller from growing the map without end; on overflow the memo is
// flushed wholesale (an epoch flush — simple, and correctness never
// depends on an entry being present).
const maxMemoEntries = 1 << 16

// Engine is a batch evaluator with a persistent memo and solver pool.
// The zero value is not ready; build one with New. An Engine is safe
// for concurrent Solve calls (concurrent equal points may race to
// duplicate a fill — never to a wrong result), though the intended
// pattern is one engine per logical grid: per figure, per fixed point,
// per optimizer run.
type Engine struct {
	opt Options

	mu    sync.Mutex
	memo  map[string]*memoResult
	pool  []*core.Solver
	stats Stats
}

// New builds an Engine.
func New(opt Options) *Engine {
	return &Engine{opt: opt, memo: make(map[string]*memoResult)}
}

// maxPoolSolvers bounds the solver free pool: beyond it, lattices go
// back to the GC. The value is not derived from anything; it is a
// small cap on what an idle engine keeps.
const maxPoolSolvers = 8

func (e *Engine) takeSolver() *core.Solver {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.pool); n > 0 {
		s := e.pool[n-1]
		e.pool = e.pool[:n-1]
		return s
	}
	return &core.Solver{}
}

// putSolver hands a solver back to the free pool; the caller must not
// touch it (or results read off it) afterwards.
//
//lint:pooled
func (e *Engine) putSolver(s *core.Solver) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.pool) < maxPoolSolvers {
		e.pool = append(e.pool, s)
	}
}

// Stats returns a snapshot of the engine's lifetime accounting.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// hexFloat renders x exactly: two keys collide only for bit-identical
// parameters (same convention as the xbard solver cache).
func hexFloat(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// ClassKey canonicalizes per-route traffic classes to the exact
// quantities Algorithm 1 reads: bandwidth, the Poisson/bursty split,
// rho = alpha/mu, and (bursty classes only) beta/mu. Names and the
// (alpha, mu) factorization of rho are excluded — models equal under
// this key produce bit-identical lattices and per-class measures.
// Class order is preserved: it enters the fill's accumulation order
// and therefore the rounding. Exported for internal/server's /v1/grid
// planner, which groups request points with the same rule.
func ClassKey(classes []core.Class) string {
	var b strings.Builder
	b.Grow(48 * len(classes))
	for i := range classes {
		c := &classes[i]
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(c.A))
		if c.IsPoisson() {
			// Beta is never read on the Poisson branch, so it is
			// canonicalized away entirely.
			b.WriteString(":p:")
			b.WriteString(hexFloat(c.Rho()))
		} else {
			b.WriteString(":b:")
			b.WriteString(hexFloat(c.Rho()))
			b.WriteByte(':')
			b.WriteString(hexFloat(c.BetaMu()))
		}
	}
	return b.String()
}

// pointKey is the full canonical key of one point: dimensions plus
// class key.
func pointKey(n1, n2 int, ck string) string {
	return strconv.Itoa(n1) + "x" + strconv.Itoa(n2) + ck
}

// uniquePoint is one distinct canonical model of a batch and the
// result slots it serves.
type uniquePoint struct {
	key    string
	n1, n2 int
	slots  []int
}

// fillGroup is one lattice fill: every unique point sharing a class
// key, served from a single fill at the componentwise maximum
// dimensions (sub-lattice reads are bit-identical to fresh fills of
// the smaller switches).
type fillGroup struct {
	classes []core.Class
	n1, n2  int
	members []int // indices into the batch's unique list
}

// Solve evaluates every point and returns one Result per point, in
// input order. Results for equal points share no mutable state — each
// is an independent clone carrying the point's own Switch. Every
// returned Result is bit-identical to fresh core.Solve of the same
// point (the package's property tests pin this for both the memoized
// and the NoMemo path).
func (e *Engine) Solve(points []core.Switch) ([]*core.Result, error) {
	if len(points) == 0 {
		return nil, nil
	}
	for i := range points {
		if err := points[i].Validate(); err != nil {
			return nil, fmt.Errorf("grid: point %d: %w", i, err)
		}
	}
	results := make([]*core.Result, len(points))
	if e.opt.NoMemo {
		if err := e.solveFresh(points, results); err != nil {
			return nil, err
		}
		return results, nil
	}

	// Plan: canonicalize, serve memo hits, deduplicate within the
	// batch, and group the remaining unique points by class key.
	uniqIdx := make(map[string]int)
	var uniq []*uniquePoint
	groupIdx := make(map[string]int)
	var groups []*fillGroup
	memoHits, batchHits := 0, 0
	e.mu.Lock()
	for i := range points {
		sw := points[i]
		ck := ClassKey(sw.Classes)
		pk := pointKey(sw.N1, sw.N2, ck)
		if m, ok := e.memo[pk]; ok {
			results[i] = m.clone(sw)
			memoHits++
			continue
		}
		if j, ok := uniqIdx[pk]; ok {
			uniq[j].slots = append(uniq[j].slots, i)
			batchHits++
			continue
		}
		uniqIdx[pk] = len(uniq)
		uniq = append(uniq, &uniquePoint{key: pk, n1: sw.N1, n2: sw.N2, slots: []int{i}})
		gi, ok := groupIdx[ck]
		if !ok {
			gi = len(groups)
			groupIdx[ck] = gi
			groups = append(groups, &fillGroup{classes: sw.Classes})
		}
		g := groups[gi]
		g.n1 = max(g.n1, sw.N1)
		g.n2 = max(g.n2, sw.N2)
		g.members = append(g.members, len(uniq)-1)
	}
	e.stats.Points += len(points)
	e.stats.Unique += len(uniq)
	e.stats.Fills += len(groups)
	e.stats.MemoHits += memoHits
	e.stats.BatchHits += batchHits
	e.mu.Unlock()

	// Execute: workers claim groups off the shared queue.
	err := parallel.ForEach(e.opt.Workers, groups, func(_ int, g *fillGroup) error {
		return e.solveGroup(g, uniq, points, results)
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// solveGroup runs one group's lattice fill and scatters its members'
// results. The fill carries a pprof label so `make profile` and the
// xbard debug mux attribute grid time per phase.
func (e *Engine) solveGroup(g *fillGroup, uniq []*uniquePoint, points []core.Switch, results []*core.Result) error {
	solver := e.takeSolver()
	defer e.putSolver(solver)
	sw := core.Switch{N1: g.n1, N2: g.n2, Classes: g.classes}
	var err error
	pprof.Do(context.Background(), pprof.Labels("xbar_phase", "grid_fill"), func(context.Context) {
		err = solver.Reuse(sw)
	})
	if err != nil {
		return fmt.Errorf("grid: fill %dx%d: %w", g.n1, g.n2, err)
	}
	for _, ui := range g.members {
		u := uniq[ui]
		m := newMemoResult(solver.ResultAt(u.n1, u.n2))
		e.mu.Lock()
		if len(e.memo) >= maxMemoEntries {
			clear(e.memo)
		}
		e.memo[u.key] = m
		e.mu.Unlock()
		for _, slot := range u.slots {
			results[slot] = m.clone(points[slot])
		}
	}
	return nil
}

// solveFresh is the NoMemo path: one full fill per point through the
// pooled solvers, no sharing of any kind.
func (e *Engine) solveFresh(points []core.Switch, results []*core.Result) error {
	err := parallel.ForEach(e.opt.Workers, points, func(i int, sw core.Switch) error {
		solver := e.takeSolver()
		defer e.putSolver(solver)
		var err error
		pprof.Do(context.Background(), pprof.Labels("xbar_phase", "grid_fill"), func(context.Context) {
			err = solver.Reuse(sw)
		})
		if err != nil {
			return fmt.Errorf("grid: point %d: %w", i, err)
		}
		results[i] = solver.Result()
		return nil
	})
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.stats.Points += len(points)
	e.stats.Unique += len(points)
	e.stats.Fills += len(points)
	e.mu.Unlock()
	return nil
}
