package core

import (
	"fmt"
	"math"

	"xbar/internal/combin"
	"xbar/internal/parallel"
	"xbar/internal/scale"
)

// Solver runs the paper's Algorithm 1: the two-dimensional lattice
// recursion (Eq. 10) on the normalized constant Q(n) = G(n)/(n1! n2!),
//
//	Q(n + 1_i) = [ Q(n)
//	             + sum_{r in R1} a_r rho_r Q(n + 1_i - a_r I)
//	             + sum_{r in R2} a_r rho_r V(n + 1_i, r) ] / (n_i + 1),
//	V(m, r)    = Q(m - a_r I) + (beta_r/mu_r) V(m - a_r I, r),
//
// with Q = 0 off the non-negative lattice and Q(0) = 1. The whole Q
// grid is retained, so measures are available for every sub-switch
// (n1, n2) <= (N1, N2) — which is what the revenue analysis and the
// bursty-class concurrency recursion need. The V lattices feed only
// the Q recursion, so they live in shared scratch for the length of
// one fill (scratch.go).
//
// Arithmetic uses the scale package: this is the dynamic scaling of
// Section 6 applied at every step, letting the recursion run far past
// the N ~ 85 point where raw float64 underflows (Q(N) ~ 1/(N1! N2!)).
type Solver struct {
	sw Switch
	// q holds Q on the (N1+1) x (N2+1) lattice, row-major by n1.
	q []scale.Number
	// poisson and bursty hold the per-class recursion constants,
	// hoisted out of the fill loops (one Frexp per class per solve
	// instead of several per cell).
	poisson []poissonTerm
	bursty  []burstyTerm
	// maxA is the largest class rate a_r, the boundary band width: at
	// cells with n1 >= maxA and n2 >= maxA every class displacement
	// lands on the lattice and the fill can skip the per-class guards.
	maxA int
	// inv caches 1/n for n = 1..max(N1, N2): the fill multiplies by
	// the reciprocal of the cell count (scale.Acc.MulNorm) instead of
	// dividing, one rounding more than the exact division and ~15
	// cycles less per cell.
	inv []float64
}

// poissonTerm is one R1 class's hoisted fill constants.
type poissonTerm struct {
	a    int
	off  int          // lattice offset of the (a, a) displacement
	coef scale.Number // a_r * rho_r
}

// burstyTerm is one R2 class's hoisted fill constants plus its W
// lattice, the Eq. 9 V lattice pre-scaled by the class coefficient:
//
//	W(m, r) = a_r rho_r V(m, r)
//	        = a_r rho_r Q(m - a_r I) + (beta_r/mu_r) W(m - a_r I, r).
//
// Pre-scaling folds the a_r rho_r multiply of Eq. 10's class term into
// the W recursion itself, where it rides the Q(m - a_r I) product that
// is computed anyway; the Q accumulation then adds W verbatim. The
// cells are stored as raw scale.Acc working values — never normalized,
// which the fill's hot path is allowed because a W chain grows by at
// most one binary order per diagonal step (see scale.Acc). The lattice
// is accScratch's for the length of one fill: w views the buffer in
// box between load and release, and both are nil otherwise.
type burstyTerm struct {
	a      int
	off    int          // lattice offset of the (a, a) displacement
	coef   scale.Number // a_r * rho_r
	betaMu scale.Number // beta_r / mu_r
	w      []scale.Acc
	box    *[]scale.Acc
}

// NewSolver validates the switch and fills the Q lattice.
func NewSolver(sw Switch) (*Solver, error) {
	s := &Solver{}
	if err := s.Reuse(sw); err != nil {
		return nil, err
	}
	return s, nil
}

// Reuse re-points the solver at sw and refills the lattice, recycling
// the Q buffer whenever its capacity allows and taking the W lattices
// from the shared fill scratch. This is the allocation-free path for
// repeated solves of same-size systems (TestReuseAllocs) — the
// reduced-load fixed point (internal/network) and the perturbed
// re-solves of the revenue gradients run through it.
func (s *Solver) Reuse(sw Switch) error {
	if err := s.load(sw); err != nil {
		return err
	}
	s.fill()
	s.release()
	return nil
}

// load validates sw, sizes the Q lattice for it and prepares the fill:
// the first of Reuse's three steps, load, fill and release.
func (s *Solver) load(sw Switch) error {
	if err := sw.Validate(); err != nil {
		return err
	}
	s.sw = sw
	size := (sw.N1 + 1) * (sw.N2 + 1)
	if cap(s.q) >= size {
		s.q = s.q[:size]
	} else {
		s.q = make([]scale.Number, size)
	}
	s.prepare(size)
	return nil
}

// prepare rebuilds the hoisted per-class terms and takes one W lattice
// of size cells per bursty class from the fill scratch.
func (s *Solver) prepare(size int) {
	s.poisson = s.poisson[:0]
	s.bursty = s.bursty[:0]
	if maxN := s.sw.MaxN(); len(s.inv) <= maxN {
		s.inv = make([]float64, maxN+1)
		for n := 1; n <= maxN; n++ {
			s.inv[n] = 1 / float64(n)
		}
	}
	n2w := s.sw.N2 + 1
	s.maxA = 0
	for _, c := range s.sw.Classes {
		s.maxA = max(s.maxA, c.A)
		if c.IsPoisson() {
			s.poisson = append(s.poisson, poissonTerm{
				a:    c.A,
				off:  c.A*n2w + c.A,
				coef: scale.FromFloat64(float64(c.A) * c.Rho()),
			})
			continue
		}
		box := accScratch.take(size)
		s.bursty = append(s.bursty, burstyTerm{
			a:      c.A,
			off:    c.A*n2w + c.A,
			coef:   scale.FromFloat64(float64(c.A) * c.Rho()),
			betaMu: scale.FromFloat64(c.BetaMu()),
			w:      *box,
			box:    box,
		})
	}
}

// release hands the W lattices back to the fill scratch. The filled
// solver keeps Q, all its reads need.
func (s *Solver) release() {
	for j := range s.bursty {
		b := &s.bursty[j]
		accScratch.give(b.box)
		b.w, b.box = nil, nil
	}
}

// Solve computes the performance measures for sw with Algorithm 1.
func Solve(sw Switch) (*Result, error) {
	s, err := NewSolver(sw)
	if err != nil {
		return nil, err
	}
	return s.Result(), nil
}

// at returns Q(n1, n2), or zero off the lattice.
func (s *Solver) at(n1, n2 int) scale.Number {
	if n1 < 0 || n2 < 0 {
		return scale.Zero
	}
	return s.q[n1*(s.sw.N2+1)+n2]
}

// parallelCutoff is the lattice cell count up to which fill runs
// sequentially; larger lattices fill as a tiled wavefront on
// GOMAXPROCS workers. It is the N = 512 lattice, the crossover
// measured on a 2-core Xeon (docs/PERFORMANCE.md §4): on two workers
// the wavefront cut the N = 1024 fill from 24.3 to 17.7 ms (medians,
// 12 of 12 interleaved pairs won; 14 of 16 on a rerun), while at
// N = 256 and N = 512 it won 8 and 7 of 12 pairs, inside the
// quartile spread. With two N = 1024 fills running at once on those
// two cores, the wavefront's throughput ties the sequential fill's
// within the quartile spread (medians 2-6% slower, 10 of 28 pairs
// won), so concurrent callers lose little to the oversubscribed pool.
// Above N = 512, auto dispatch hands most models to the asymptotic
// tier, so the wavefront mostly serves forced exact fills.
const parallelCutoff = 513 * 513

// fill runs the Eq. 10 recursion over the whole lattice: sequentially
// in row-major order up to parallelCutoff cells, as a tiled wavefront
// above it. Every cell's dependencies (the 1_i neighbor, the (a, a)
// diagonal predecessors, and the W lattices' own (a, a) predecessors)
// live at strictly smaller n1 + n2, so anti-diagonal tile order is a
// topological order and the wavefront computes bit-identical lattices
// for any worker count and tile size. All per-cell state (the
// scale.Acc) is stack-local to fillBlock, so no accumulator or Frexp
// state ever crosses goroutines.
func (s *Solver) fill() {
	rows, cols := s.sw.N1+1, s.sw.N2+1
	w, tile := fillPlan(rows, cols)
	if w <= 1 {
		s.fillBlock(0, rows, 0, cols)
		return
	}
	parallel.Wavefront(w, rows, cols, tile, s.fillBlock)
}

// fillPlan picks the schedule of a rows x cols Algorithm 1 fill: the
// worker count (1 meaning sequential) and the wavefront tile edge. The
// edge gives every worker about two tiles on the long anti-diagonals
// while keeping tiles large enough to amortize the per-diagonal
// barrier and stay cache-resident: a 64-cell edge is 64 KiB of Q
// lattice (16-byte scale.Number cells) per tile row.
func fillPlan(rows, cols int) (workers, tile int) {
	w := parallel.Workers(0)
	if rows*cols <= parallelCutoff || w <= 1 {
		return 1, 0
	}
	return w, max(16, min(min(rows, cols)/(2*w), 256))
}

// fillBlock runs the recursion over the half-open cell block
// [n1lo, n1hi) x [n2lo, n2hi) in row-major order. The fill works on
// flat indices with hoisted per-class constants and deferred-
// normalization accumulators (scale.Acc): each cell costs one
// renormalization instead of several per class, which is where
// Algorithm 1 spends its time at N = 256. Interior row segments run
// as per-class row passes over a stack row of accumulators
// (fillRowInterior), or through the fused cell kernel for the
// paper's one-Poisson-plus-one-bursty mix. The n1 = 0 boundary row
// (step direction 2, no class terms reachable) is split out so the
// main loop carries no per-cell direction or origin branches, and each
// row splits into the guarded boundary band (n2 < maxA, some class
// displacement may fall off the lattice) and the unguarded interior.
// Whether a cell takes the guarded or the interior body depends only
// on its coordinates, never on the block, so the split preserves the
// wavefront's bit-identity guarantee.
func (s *Solver) fillBlock(n1lo, n1hi, n2lo, n2hi int) {
	n2w := s.sw.N2 + 1
	var acc [rowChunk]scale.Acc
	n1 := n1lo
	if n1 == 0 {
		s.fillRow0(n2lo, n2hi)
		n1++
	}
	for ; n1 < n1hi; n1++ {
		base := n1 * n2w
		inv1 := s.inv[n1]
		n2 := n2lo
		if n1 < s.maxA {
			// The whole row sits in the boundary band.
			for ; n2 < n2hi; n2++ {
				s.fillCellGuarded(n1, n2, base+n2)
			}
			continue
		}
		for lim := min(s.maxA, n2hi); n2 < lim; n2++ {
			s.fillCellGuarded(n1, n2, base+n2)
		}
		if len(s.poisson) == 1 && len(s.bursty) == 1 {
			// The paper's canonical mix — one Poisson plus one bursty
			// class (every Section 7 figure) — goes through the fused
			// cell kernel scale.QCellPB: one call per cell instead of
			// one per accumulated term, with all class state hoisted
			// into registers. The kernel is bit-identical to the
			// generic body's wrapper sequence (TestQCellPB).
			p0, b0 := &s.poisson[0], &s.bursty[0]
			cp, poff := p0.coef, p0.off
			cb, bm, boff, w := b0.coef, b0.betaMu, b0.off, b0.w
			// Row-segment views, each re-sliced to the segment length
			// so the per-cell indexing below carries no bounds checks.
			lo, seg := base+n2, n2hi-n2
			if seg <= 0 {
				// The guarded band covered the whole segment; the
				// displaced views below would underflow the lattice.
				continue
			}
			qr := s.q[lo : lo+seg]
			qu := s.q[lo-n2w:]
			qu = qu[:seg]
			qp := s.q[lo-poff:]
			qp = qp[:seg]
			qb := s.q[lo-boff:]
			qb = qb[:seg]
			wd := w[lo-boff:]
			wd = wd[:seg]
			wr := w[lo : lo+seg]
			for k := range qr {
				q, wa := scale.QCellPB(qu[k], qp[k], qb[k], wd[k], cp, cb, bm, inv1)
				wr[k] = wa
				qr[k] = q
			}
			continue
		}
		s.fillRowInterior(&acc, base+n2, base+n2hi, inv1)
	}
}

// rowChunk is the length of the row accumulator fillBlock keeps on its
// stack: the interior row pass runs over a row segment in chunks of at
// most this many cells.
const rowChunk = 256

// fillRowInterior fills the interior cells [lo, hi) (flat indices, one
// row n1 >= maxA, n2 >= maxA) with the scale row kernels: the up term,
// then one pass per Poisson class and one per bursty class (storing
// the W cells as it goes), then the 1/n1 normalization — per cell the
// exact Acc sequence of the per-cell Eq. 10 body, so the lattice is
// bit-identical to it. Every displacement is on the lattice, so no
// per-class guards.
func (s *Solver) fillRowInterior(acc *[rowChunk]scale.Acc, lo, hi int, inv1 float64) {
	n2w := s.sw.N2 + 1
	for ; lo < hi; lo += rowChunk {
		a := acc[:min(hi-lo, rowChunk)]
		scale.RowInit(a, s.q[lo-n2w:])
		for j := range s.poisson {
			p := &s.poisson[j]
			scale.RowAddMul(a, s.q[lo-p.off:], p.coef)
		}
		for j := range s.bursty {
			b := &s.bursty[j]
			scale.RowAddW(a, b.w[lo:], s.q[lo-b.off:], b.w[lo-b.off:], b.coef, b.betaMu)
		}
		scale.RowMulNorm(s.q[lo:], a, inv1)
	}
}

// fillCellGuarded is the boundary-band cell body: per cell, the same
// Acc sequence as the interior row pass, except that every class
// displacement is range-checked against the lattice edge (off-lattice
// Q and W are zero).
func (s *Solver) fillCellGuarded(n1, n2, i int) {
	var acc scale.Acc
	acc.Init(s.q[i-s.sw.N2-1])
	for j := range s.poisson {
		p := &s.poisson[j]
		if n1 >= p.a && n2 >= p.a {
			acc.AddMul(s.q[i-p.off], p.coef)
		}
	}
	for j := range s.bursty {
		b := &s.bursty[j]
		if n1 >= b.a && n2 >= b.a {
			p := i - b.off
			var wa scale.Acc
			wa.InitMul(s.q[p], b.coef)
			wa.AddMulAcc(b.w[p], b.betaMu)
			b.w[i] = wa
			acc.AddAcc(wa)
		} else {
			b.w[i] = scale.Acc{}
		}
	}
	s.q[i] = acc.MulNorm(s.inv[n1])
}

// fillRow0 fills the n1 = 0 boundary row of the block: Q(0, 0) = 1 and
// Q(0, n2) = Q(0, n2-1)/n2 (every class term needs n1 >= a_r >= 1, and
// the W lattices are zero on the row for the same reason).
func (s *Solver) fillRow0(n2lo, n2hi int) {
	for j := range s.bursty {
		w := s.bursty[j].w
		for n2 := n2lo; n2 < n2hi; n2++ {
			w[n2] = scale.Acc{}
		}
	}
	n2 := n2lo
	if n2 == 0 {
		s.q[0] = scale.One
		n2++
	}
	for ; n2 < n2hi; n2++ {
		var acc scale.Acc
		acc.Init(s.q[n2-1])
		s.q[n2] = acc.MulNorm(s.inv[n2])
	}
}

// Result returns the measures at the full switch size.
func (s *Solver) Result() *Result {
	return s.ResultAt(s.sw.N1, s.sw.N2)
}

// ResultAt returns the measures for the sub-switch (n1, n2) with the
// same per-route traffic classes. Panics if (n1, n2) exceeds the solved
// lattice or is not positive.
func (s *Solver) ResultAt(n1, n2 int) *Result {
	if n1 < 1 || n2 < 1 || n1 > s.sw.N1 || n2 > s.sw.N2 {
		//lint:allow libpanic out-of-range lattice index is a caller bug, same contract as slice indexing
		panic(fmt.Sprintf("core: ResultAt(%d, %d) outside solved lattice %dx%d",
			n1, n2, s.sw.N1, s.sw.N2))
	}
	sub := Switch{N1: n1, N2: n2, Classes: s.sw.Classes}
	res := newResult(sub, "algorithm1")
	qn := s.at(n1, n2)
	res.LogG = qn.Log() + combin.LogFactorial(n1) + combin.LogFactorial(n2)

	for r, c := range sub.Classes {
		a := c.A
		if a > sub.MinN() {
			res.NonBlocking[r] = 0
			res.Concurrency[r] = 0
			continue
		}
		// B_r = Q(N - a I) / (P(N1,a) P(N2,a) Q(N))  (Step 3).
		res.NonBlocking[r] = s.at(n1-a, n2-a).Ratio(qn) /
			(combin.Perm(n1, a) * combin.Perm(n2, a))
		res.Concurrency[r] = s.concurrency(r, n1, n2)
	}
	res.finish()
	return res
}

// concurrency evaluates E_r at (n1, n2). For Poisson classes:
//
//	E_r(N) = rho_r P(N1,a) P(N2,a) G(N-aI)/G(N),
//
// and for bursty classes the diagonal recursion
//
//	E_r(N) = P(N1,a) P(N2,a) G(N-aI)/G(N) { rho_r + (beta/mu) E_r(N-aI) },
//
// with E_r = 0 once the switch is smaller than a_r. The paper's
// Section 3 prints binomial factors C(N_i, a_r) here, but the product
// form it derives from (Psi built from falling factorials, i.e. the
// per-ordered-route arrival convention) requires permutations
// P(N_i, a_r) = a_r!^2-times larger; the two agree only when a_r = 1,
// which is all the paper's numerical section uses. Direct state-space
// summation (E_r = sum k_r pi(k)) confirms the permutation form; see
// TestCrossValidation.
func (s *Solver) concurrency(r, n1, n2 int) float64 {
	c := s.sw.Classes[r]
	a := c.A
	// Fold the diagonal chain N, N-aI, N-2aI, ... (every point with
	// both coordinates >= a) from its bottom end back up to N.
	e := 0.0
	for t := min(n1, n2)/a - 1; t >= 0; t-- {
		m1, m2 := n1-t*a, n2-t*a
		gRatio := s.at(m1-a, m2-a).Ratio(s.at(m1, m2)) /
			(combin.Perm(m1, a) * combin.Perm(m2, a)) // G(M-aI)/G(M)
		cc := combin.Perm(m1, a) * combin.Perm(m2, a)
		if c.IsPoisson() {
			e = c.Rho() * cc * gRatio
		} else {
			e = cc * gRatio * (c.Rho() + c.BetaMu()*e)
		}
	}
	return e
}

// SolveUnscaled runs Algorithm 1 in raw float64 with no dynamic
// scaling, exactly as Eq. 10 reads before Section 6 is applied. It
// returns an error when the recursion under- or overflows, which
// happens once min(N1, N2) reaches roughly 85 — the ablation
// demonstrating why Section 6 exists.
func SolveUnscaled(sw Switch) (*Result, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	n1max, n2max := sw.N1, sw.N2
	q := make([]float64, (n1max+1)*(n2max+1))
	idx := func(n1, n2 int) int { return n1*(n2max+1) + n2 }
	at := func(n1, n2 int) float64 {
		if n1 < 0 || n2 < 0 {
			return 0
		}
		return q[idx(n1, n2)]
	}
	type bc struct {
		a           int
		rho, betaMu float64
		v           []float64
	}
	var bursty []bc
	for _, c := range sw.Classes {
		if !c.IsPoisson() {
			bursty = append(bursty, bc{a: c.A, rho: c.Rho(), betaMu: c.BetaMu(),
				v: make([]float64, (n1max+1)*(n2max+1))})
		}
	}
	for n1 := 0; n1 <= n1max; n1++ {
		for n2 := 0; n2 <= n2max; n2++ {
			for j := range bursty {
				b := &bursty[j]
				var v float64
				if n1-b.a >= 0 && n2-b.a >= 0 {
					v = at(n1-b.a, n2-b.a) + b.betaMu*b.v[idx(n1-b.a, n2-b.a)]
				}
				b.v[idx(n1, n2)] = v
			}
			if n1 == 0 && n2 == 0 {
				q[0] = 1
				continue
			}
			var sum, div float64
			if n1 > 0 {
				sum = at(n1-1, n2)
				div = float64(n1)
			} else {
				sum = at(0, n2-1)
				div = float64(n2)
			}
			for _, c := range sw.Classes {
				if c.IsPoisson() {
					sum += float64(c.A) * c.Rho() * at(n1-c.A, n2-c.A)
				}
			}
			for j := range bursty {
				b := &bursty[j]
				sum += float64(b.a) * b.rho * b.v[idx(n1, n2)]
			}
			q[idx(n1, n2)] = sum / div
		}
	}
	qn := q[idx(n1max, n2max)]
	if qn == 0 || math.IsInf(qn, 0) || math.IsNaN(qn) { //lint:allow floatcmp detects exact underflow-to-zero of the unscaled recursion
		return nil, fmt.Errorf("core: unscaled Algorithm 1 lost Q(N) to %v at %dx%d; use Solve (dynamic scaling)",
			qn, n1max, n2max)
	}
	res := newResult(sw, "algorithm1-unscaled")
	res.LogG = math.Log(qn) + combin.LogFactorial(n1max) + combin.LogFactorial(n2max)
	for r, c := range sw.Classes {
		a := c.A
		if a > sw.MinN() {
			continue
		}
		res.NonBlocking[r] = at(n1max-a, n2max-a) / qn /
			(combin.Perm(n1max, a) * combin.Perm(n2max, a))
		// Concurrency via the same Section 3 diagonal recursion on the
		// raw lattice; precision loss here is part of the ablation.
		e := 0.0
		for t := min(n1max, n2max)/a - 1; t >= 0; t-- {
			m1, m2 := n1max-t*a, n2max-t*a
			gRatio := at(m1-a, m2-a) / at(m1, m2) /
				(combin.Perm(m1, a) * combin.Perm(m2, a))
			cc := combin.Perm(m1, a) * combin.Perm(m2, a)
			if c.IsPoisson() {
				e = c.Rho() * cc * gRatio
			} else {
				e = cc * gRatio * (c.Rho() + c.BetaMu()*e)
			}
		}
		res.Concurrency[r] = e
	}
	res.finish()
	return res, nil
}
