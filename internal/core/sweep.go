package core

import (
	"fmt"
	"sync"
)

// The sweep solvers amortize one lattice fill over many reads. Both
// Algorithm 1 and Algorithm 2 retain the full grids their reads need
// (Q, or F_1 and F_2), and the Eq. 10 / Eq. 12-20 recursions are
// lower-triangular: the value at (n1, n2) depends only on lattice
// points below it. A sub-lattice of one big fill is therefore
// bit-identical to a fresh fill of the smaller switch with the same
// per-route classes, so a single O(N^2 R) solve at the maximum size
// serves exact results for every sub-size — the "compute once, read
// many" structure the figures' size sweeps and the revenue differences
// W(N) - W(N - a_r I) want.
//
// The one semantic caveat: ResultAt(n1, n2) is the switch (n1, n2)
// with the SAME per-route classes as the full switch. The paper's
// figure axes normalize aggregate (tilde) intensities per size —
// AggregateClass.PerRoute(n) divides by C(n, a) — so each point of
// those sweeps is a different per-route model and must be solved
// fresh; see docs/PERFORMANCE.md. Fixed-per-route sweeps and the
// in-lattice revenue reads (shadow costs, closed-form gradients,
// Table 2's GradRho1 column) are exactly what the sweep solvers are
// for.

// latticeResulter is the read interface the two sweep caches share.
type latticeResulter interface {
	ResultAt(n1, n2 int) *Result
}

// sweepCache memoizes ResultAt reads off a retained lattice. Computing
// a Result from the lattice is O(R (n/a)) (the concurrency chains) and
// allocates; the cache makes repeated reads of the same point O(1).
//
// The memo is sparse: it holds only the points that were read, keyed
// by n1*(N2+1)+n2. A served entry reads one to a few points of its
// lattice, so the memo's memory, its GC scan and its clear on reset
// scale with the reads, not with the (N1+1)*(N2+1) lattice.
//
// Between fills the lattice is read-only, so reads are safe for
// concurrent use: lookups take mu's read lock, and a miss computes its
// Result outside the lock and stores it under the write lock unless
// another reader stored the point first. After the first store every
// reader of a point gets the same pointer. reset is exclusive, like
// the Reuse that calls it.
type sweepCache struct {
	sw   Switch
	lat  latticeResulter
	mu   sync.RWMutex
	memo map[int]*Result
}

// reset re-points the cache at a freshly filled lattice. Clearing the
// memo keeps its storage for the next fill's reads; a nil memo (the
// zero SweepSolver or MVASweepSolver) is made here.
func (s *sweepCache) reset(sw Switch, lat latticeResulter) {
	s.sw = sw
	s.lat = lat
	if s.memo == nil {
		s.memo = make(map[int]*Result)
	} else {
		clear(s.memo)
	}
}

// Switch returns the full-size switch the lattice was solved for.
func (s *sweepCache) Switch() Switch { return s.sw }

// Result returns the measures at the full switch size.
func (s *sweepCache) Result() *Result { return s.ResultAt(s.sw.N1, s.sw.N2) }

// ResultAt returns the measures for the sub-switch (n1, n2) with the
// same per-route classes, computed from the retained lattice on first
// read and served from the memo afterwards. The returned Result is
// shared across calls and must not be mutated. Panics outside the
// solved lattice, same contract as the underlying solvers. Safe for
// concurrent use, as are Result, WAt and ShadowCost: two first reads
// of one point that race may both compute it, but only the first
// store is kept and both return it.
func (s *sweepCache) ResultAt(n1, n2 int) *Result {
	if n1 < 1 || n2 < 1 || n1 > s.sw.N1 || n2 > s.sw.N2 {
		// Delegate so the panic message names the concrete solver.
		return s.lat.ResultAt(n1, n2)
	}
	key := n1*(s.sw.N2+1) + n2
	s.mu.RLock()
	r, ok := s.memo[key]
	s.mu.RUnlock()
	if ok {
		return r
	}
	r = s.lat.ResultAt(n1, n2)
	s.mu.Lock()
	if first, ok := s.memo[key]; ok {
		r = first
	} else {
		s.memo[key] = r
	}
	s.mu.Unlock()
	return r
}

// WAt returns the average revenue W(n1, n2) = sum_r w_r E_r for the
// sub-switch, with the paper's convention W = 0 once either dimension
// reaches zero (E_r(0) = 0).
func (s *sweepCache) WAt(weights []float64, n1, n2 int) float64 {
	if n1 < 1 || n2 < 1 {
		return 0
	}
	return s.ResultAt(n1, n2).Revenue(weights)
}

// ShadowCost returns DeltaW_r(N) = W(N) - W(N - a_r I), the revenue
// displaced by dedicating a_r inputs and outputs to one class-r
// connection — a pure lattice read, no re-solve.
func (s *sweepCache) ShadowCost(weights []float64, r int) float64 {
	if r < 0 || r >= len(s.sw.Classes) {
		//lint:allow libpanic class index out of range is a caller bug, same contract as slice indexing
		panic(fmt.Sprintf("core: ShadowCost class %d of %d", r, len(s.sw.Classes)))
	}
	a := s.sw.Classes[r].A
	return s.WAt(weights, s.sw.N1, s.sw.N2) - s.WAt(weights, s.sw.N1-a, s.sw.N2-a)
}

// SweepSolver is the Algorithm 1 sweep layer: one Eq. 10 lattice fill
// at the full size, memoized ResultAt reads for every sub-size. The
// memo holds only the points read since the last fill. Its reads
// (Result, ResultAt, WAt, ShadowCost) are safe for concurrent use;
// Reuse is not, and must not overlap any read. A Result read before
// Reuse is never written again: Reuse only drops it from the memo.
type SweepSolver struct {
	sweepCache
	solver *Solver
}

// NewSweepSolver validates sw, fills the Algorithm 1 lattice once, and
// returns the memoizing read layer.
func NewSweepSolver(sw Switch) (*SweepSolver, error) {
	solver, err := NewSolver(sw)
	if err != nil {
		return nil, err
	}
	s := &SweepSolver{solver: solver}
	s.sweepCache.reset(solver.sw, solver)
	return s, nil
}

// Reuse re-points the sweep solver at sw, refilling the retained
// Algorithm 1 lattice through Solver.Reuse (recycling the Q buffer)
// and resetting the memoized reads. The zero value of SweepSolver is
// ready for Reuse, mirroring Solver — the admission-control server's
// solver cache recycles evicted sweep solvers this way instead of
// allocating fresh lattices per cache miss. A Result read before
// Reuse stays valid: the refill never writes it. Trailing Options are
// inert.
func (s *SweepSolver) Reuse(sw Switch, _ ...Options) error {
	if s.solver == nil {
		s.solver = &Solver{}
	}
	if err := s.solver.Reuse(sw); err != nil {
		return err
	}
	s.sweepCache.reset(s.solver.sw, s.solver)
	return nil
}

// Cells returns how many lattice cells the retained Q lattice holds: a
// Reuse on a switch of up to that many (N1+1)(N2+1) cells refills it
// without growing it. The zero SweepSolver holds none.
func (s *SweepSolver) Cells() int {
	if s.solver == nil {
		return 0
	}
	return cap(s.solver.q)
}

// MVASweepSolver is the Algorithm 2 twin: one ratio-lattice fill,
// memoized ResultAt reads. Same semantics as SweepSolver with
// Algorithm 2's plain-float64 numerics, the same sparse memo and the
// same concurrency contract: concurrent reads, exclusive Reuse.
type MVASweepSolver struct {
	sweepCache
	solver *MVASolver
}

// NewMVASweepSolver validates sw, fills the Algorithm 2 ratio lattices
// once, and returns the memoizing read layer.
func NewMVASweepSolver(sw Switch) (*MVASweepSolver, error) {
	solver, err := NewMVASolver(sw)
	if err != nil {
		return nil, err
	}
	s := &MVASweepSolver{solver: solver}
	s.sweepCache.reset(solver.sw, solver)
	return s, nil
}

// Reuse re-points the sweep solver at sw, refilling the retained ratio
// lattices through MVASolver.Reuse and resetting the memoized reads.
// The zero value of MVASweepSolver is ready for Reuse, same contract
// as SweepSolver.Reuse. Trailing Options are inert.
func (s *MVASweepSolver) Reuse(sw Switch, _ ...Options) error {
	if s.solver == nil {
		s.solver = &MVASolver{}
	}
	if err := s.solver.Reuse(sw); err != nil {
		return err
	}
	s.sweepCache.reset(s.solver.sw, s.solver)
	return nil
}

// Cells returns how many lattice cells the retained F lattices hold,
// same contract as SweepSolver.Cells.
func (s *MVASweepSolver) Cells() int {
	if s.solver == nil {
		return 0
	}
	return min(cap(s.solver.f1), cap(s.solver.f2))
}
