package core

import (
	"fmt"
	"math"

	"xbar/internal/combin"
)

// MVASolver runs the paper's Algorithm 2, the mean-value style
// recursion (Section 5.1) cast directly in terms of the
// normalization-constant ratios
//
//	F_i(n) = Q(n - 1_i) / Q(n),
//	H_r(n) = Q(n - a_r I) / Q(n),
//	D(r,n) = sum_m (beta_r/mu_r)^m Q(n - m a_r I)/Q(n),
//
// so every stored quantity is O(n_i) in magnitude and ordinary float64
// suffices at any switch size — the numerical-stability advantage the
// paper claims over Algorithm 1. Dividing Eq. 8 by Q(n) gives the
// working recursion
//
//	F_i(n) = n_i / [ 1 + sum_{r in R1} a_r rho_r L_ir(n - 1_i)
//	                   + sum_{r in R2} a_r rho_r L_ir(n - 1_i) D(r, n - a_r I) ],
//
// with L_ir(n - 1_i) = Q(n - a_r I)/Q(n - 1_i) a staircase product of
// previously computed F values (Eq. 13-15, 20), and
//
//	D(r,n) = 1 + (beta_r/mu_r) H_r(n) D(r, n - a_r I).
//
// (The paper's Eq. 19 prints D = H_r + (beta/mu) D(n - a_r I), which is
// inconsistent with the definition in Eq. 17; the form above is the one
// that follows from Eq. 17 and makes Algorithm 2 agree with
// Algorithm 1 — see TestMVAMatchesAlgorithm1.)
//
// Only F_1 and F_2 are retained: the D grids feed only the F recursion,
// so they live in shared scratch for the length of one fill
// (scratch.go).
type MVASolver struct {
	sw     Switch
	f1, f2 []float64
	// d[j] is the D grid for the j-th bursty class, a view of the
	// floatScratch buffer in dBox[j] between load and release.
	d       [][]float64
	dBox    []*[]float64
	burstyR []int // class index of each bursty class
	// burstyOf maps every class index to its bursty slot, or -1 for
	// Poisson classes. Precomputed in NewMVASolver so solveF's
	// denominator loop stays O(R) per cell instead of the O(R^2) a
	// per-class burstyR scan would make it.
	burstyOf []int
	// terms holds the per-class constants hoisted out of the fill.
	terms []mvaTerm
	// maxA is the largest class rate a_r, the boundary band width: at
	// cells with n1 >= maxA and n2 >= maxA every class staircase stays
	// on the lattice and the fill runs the unguarded row passes.
	maxA int
}

// mvaTerm is one class's hoisted fill constants.
type mvaTerm struct {
	a       int
	aRho    float64 // a_r * rho_r
	betaMu  float64
	poisson bool
}

// NewMVASolver validates the switch and fills the ratio lattices.
func NewMVASolver(sw Switch) (*MVASolver, error) {
	s := &MVASolver{}
	if err := s.Reuse(sw); err != nil {
		return nil, err
	}
	return s, nil
}

// Reuse re-points the solver at sw and refills the ratio lattices,
// recycling the F buffers whenever their capacity allows and taking
// the D grids from the shared fill scratch — the allocation-free path
// for repeated solves of same-size systems (TestReuseAllocs).
func (s *MVASolver) Reuse(sw Switch) error {
	if err := s.load(sw); err != nil {
		return err
	}
	s.fill()
	s.release()
	return nil
}

// load validates sw, sizes the F lattices for it, rebuilds the hoisted
// per-class terms and takes one D grid per bursty class from the fill
// scratch: the first of Reuse's three steps, load, fill and release.
func (s *MVASolver) load(sw Switch) error {
	if err := sw.Validate(); err != nil {
		return err
	}
	s.sw = sw
	size := (sw.N1 + 1) * (sw.N2 + 1)
	grow := func(buf []float64) []float64 {
		if cap(buf) >= size {
			return buf[:size]
		}
		return make([]float64, size)
	}
	s.f1, s.f2 = grow(s.f1), grow(s.f2)
	s.burstyR = s.burstyR[:0]
	s.burstyOf = s.burstyOf[:0]
	s.terms = s.terms[:0]
	s.d = s.d[:0]
	s.dBox = s.dBox[:0]
	s.maxA = 0
	for r, c := range sw.Classes {
		s.maxA = max(s.maxA, c.A)
		s.terms = append(s.terms, mvaTerm{
			a: c.A, aRho: float64(c.A) * c.Rho(), betaMu: c.BetaMu(), poisson: c.IsPoisson(),
		})
		if c.IsPoisson() {
			s.burstyOf = append(s.burstyOf, -1)
			continue
		}
		s.burstyOf = append(s.burstyOf, len(s.burstyR))
		s.burstyR = append(s.burstyR, r)
		box := floatScratch.take(size)
		s.d = append(s.d, *box)
		s.dBox = append(s.dBox, box)
	}
	return nil
}

// release hands the D grids back to the fill scratch. The filled
// solver keeps F_1 and F_2, all its reads need.
func (s *MVASolver) release() {
	for j, box := range s.dBox {
		floatScratch.give(box)
		s.d[j], s.dBox[j] = nil, nil
	}
	s.d, s.dBox = s.d[:0], s.dBox[:0]
}

// SolveMVA computes the performance measures for sw with Algorithm 2.
func SolveMVA(sw Switch) (*Result, error) {
	s, err := NewMVASolver(sw)
	if err != nil {
		return nil, err
	}
	return s.Result(), nil
}

func (s *MVASolver) idx(n1, n2 int) int { return n1*(s.sw.N2+1) + n2 }

// fAt returns F_i at a lattice point, applying the boundary values
// F_1(0, n2) = 0, F_1(n1, 0) = n1 (and symmetrically for F_2), which
// follow from Q = 0 off-lattice and Q(n1, 0) = 1/n1!.
func (s *MVASolver) fAt(i, n1, n2 int) float64 {
	if n1 < 0 || n2 < 0 {
		return 0
	}
	if i == 1 {
		return s.f1[s.idx(n1, n2)]
	}
	return s.f2[s.idx(n1, n2)]
}

// ratio returns Q(n1-da, n2-db)/Q(n1, n2) for 0 <= da, db as a product
// of F factors along a staircase path, or 0 when the target leaves the
// lattice. Only the patterns needed by the algorithm (da = db = a, and
// the L variants) call it.
func (s *MVASolver) ratio(n1, n2, a int) float64 {
	// H_r(n) = Q(n-aI)/Q(n).
	if n1-a < 0 || n2-a < 0 {
		return 0
	}
	h := 1.0
	p1, p2 := n1, n2
	// Descend in direction 1 a times, then direction 2 a times, always
	// using F values at points already final.
	for t := 0; t < a; t++ {
		h *= s.fAt(1, p1, p2)
		p1--
	}
	for t := 0; t < a; t++ {
		h *= s.fAt(2, p1, p2)
		p2--
	}
	return h
}

// dAt returns D(r-th bursty class, n), with the off-lattice convention
// D = 1 (only the m = 0 term survives).
func (s *MVASolver) dAt(j, n1, n2 int) float64 {
	if n1 < 0 || n2 < 0 {
		return 1
	}
	return s.d[j][s.idx(n1, n2)]
}

// fill runs the Eq. 12-20 recursions over the whole lattice as one
// block, in row-major order.
func (s *MVASolver) fill() { s.fillBlock(0, s.sw.N1+1, 0, s.sw.N2+1) }

// fillBlock runs the recursions over the half-open cell block
// [n1lo, n1hi) x [n2lo, n2hi) in row-major order. Dependencies at a
// cell (the F staircases from (n - 1_i) down to (n - a_r I) and the D
// values at (n - a_r I)) all live at strictly smaller n1 + n2, except
// the same-cell F factors of the D update, which are computed before
// the cell's D; so any anti-diagonal order of blocks gives the same
// bits (TestParallelFillBitIdenticalMVA). Each row splits into the
// guarded boundary band (n1 < maxA or n2 < maxA: the F boundary
// values, and classes whose displacement may leave the lattice) and
// the interior, which fillRowInterior fills in per-class row passes.
// Which body a cell takes depends only on its coordinates.
func (s *MVASolver) fillBlock(n1lo, n1hi, n2lo, n2hi int) {
	n2w := s.sw.N2 + 1
	var l [rowChunk]float64
	for n1 := n1lo; n1 < n1hi; n1++ {
		base := n1 * n2w
		lim := n2hi
		if n1 >= s.maxA {
			lim = min(s.maxA, n2hi)
		}
		n2 := n2lo
		for ; n2 < lim; n2++ {
			s.fillCellGuarded(n1, n2, base+n2)
		}
		for ; n2 < n2hi; n2 += rowChunk {
			s.fillRowInterior(&l, n1, n2, min(n2hi, n2+rowChunk))
		}
	}
}

// fillCellGuarded is the boundary-band cell body: the F boundary
// values or the guarded balance equations, then the D grids, after F
// at this cell is final.
func (s *MVASolver) fillCellGuarded(n1, n2, i int) {
	switch {
	case n1 == 0 && n2 == 0:
		s.f1[i], s.f2[i] = 0, 0
	case n2 == 0:
		s.f1[i], s.f2[i] = float64(n1), 0
	case n1 == 0:
		s.f1[i], s.f2[i] = 0, float64(n2)
	default:
		s.f1[i] = s.solveF(1, n1, n2)
		s.f2[i] = s.solveF(2, n1, n2)
	}
	for j, r := range s.burstyR {
		t := &s.terms[r]
		d := 1.0
		if n1 >= t.a && n2 >= t.a {
			h := s.ratio(n1, n2, t.a)
			d = 1 + t.betaMu*h*s.dAt(j, n1-t.a, n2-t.a)
		}
		s.d[j][i] = d
	}
}

// fillRowInterior fills the interior cells n2 in [lo, hi) of row n1
// (n1 >= maxA, n2 >= maxA, hi - lo <= rowChunk) in per-class row
// passes: the F_1 denominators accumulate in place in the F_1 row, one
// pass per class in class order, then divide into n1; F_2 the same
// way (its staircases read the F_1 cell to the left, final by then);
// then each bursty class's D row. The staircase products come from
// stairRow into the stack row l. Per cell the float operations and
// their order are exactly those of solveF and the guarded D update, so
// the lattices are bit-identical to a per-cell fill.
func (s *MVASolver) fillRowInterior(l *[rowChunk]float64, n1, lo, hi int) {
	n2w := s.sw.N2 + 1
	i0 := n1*n2w + lo
	seg := hi - lo
	lr := l[:seg]
	for pass, fr := range [2][]float64{s.f1[i0 : i0+seg], s.f2[i0 : i0+seg]} {
		for k := range fr {
			fr[k] = 1
		}
		for r := range s.terms {
			t := &s.terms[r]
			a := t.a
			if pass == 0 {
				// L_1r: from (n - 1_1), direction 2 a times, then
				// direction 1 a-1 times.
				stairRow(lr, s.f2, i0-n2w, a, -1, s.f1, a-1, -n2w)
			} else {
				// L_2r: from (n - 1_2), direction 1 a times, then
				// direction 2 a-1 times.
				stairRow(lr, s.f1, i0-1, a, -n2w, s.f2, a-1, -1)
			}
			// The float64 conversions round each class term before it
			// is added, as solveF's term variable does: without them,
			// platforms with fused multiply-add (arm64) would fuse the
			// last multiply into the add and break bit-identity.
			if t.poisson {
				for k := range fr {
					fr[k] += float64(t.aRho * lr[k])
				}
				continue
			}
			dd := s.d[s.burstyOf[r]][i0-a*n2w-a:]
			dd = dd[:seg]
			for k := range fr {
				fr[k] += float64(t.aRho * lr[k] * dd[k])
			}
		}
		if pass == 0 {
			n1f := float64(n1)
			for k := range fr {
				fr[k] = n1f / fr[k]
			}
			continue
		}
		for k := range fr {
			fr[k] = float64(lo+k) / fr[k]
		}
	}
	for j, r := range s.burstyR {
		t := &s.terms[r]
		a := t.a
		// H_r(n): direction 1 a times, then direction 2 a times.
		stairRow(lr, s.f1, i0, a, -n2w, s.f2, a, -1)
		dv := s.d[j]
		dd := dv[i0-a*n2w-a:]
		dd = dd[:seg]
		dr := dv[i0 : i0+seg]
		for k := range dr {
			dr[k] = 1 + t.betaMu*lr[k]*dd[k]
		}
	}
}

// stairRow sets l[k], for each cell k of a row segment, to the product
// of the F factors along one staircase path: n factors of x at flat
// offsets p0+k, p0+k+sx, ..., then m factors of y stepping by sy from
// where the x walk ended. These are the paths ratio and solveF walk,
// multiplied left to right in the same order. Paths of up to six
// factors (every a_r <= 3) are fused into one pass; longer ones
// multiply in one pass per factor.
func stairRow(l, x []float64, p0, n, sx int, y []float64, m, sy int) {
	var views [6][]float64
	if n+m <= len(views) {
		v, p := 0, p0
		for t := 0; t < n; t++ {
			views[v] = x[p : p+len(l)]
			v++
			p += sx
		}
		for t := 0; t < m; t++ {
			views[v] = y[p : p+len(l)]
			v++
			p += sy
		}
		prodRow(l, views[:v])
		return
	}
	p := p0
	copy(l, x[p:p+len(l)])
	for t := 1; t < n; t++ {
		p += sx
		mulRow(l, x[p:p+len(l)])
	}
	p += sx
	for t := 0; t < m; t++ {
		mulRow(l, y[p:p+len(l)])
		p += sy
	}
}

// prodRow sets l[k] = v[0][k] * v[1][k] * ... for one to six views,
// multiplied left to right. The leading factor is taken verbatim: the
// per-cell staircases start from 1.0, and 1.0 * x == x exactly.
func prodRow(l []float64, v [][]float64) {
	switch len(v) {
	case 1:
		copy(l, v[0])
	case 2:
		x0, x1 := v[0][:len(l)], v[1][:len(l)]
		for k := range l {
			l[k] = x0[k] * x1[k]
		}
	case 3:
		x0, x1, x2 := v[0][:len(l)], v[1][:len(l)], v[2][:len(l)]
		for k := range l {
			l[k] = x0[k] * x1[k] * x2[k]
		}
	case 4:
		x0, x1, x2, x3 := v[0][:len(l)], v[1][:len(l)], v[2][:len(l)], v[3][:len(l)]
		for k := range l {
			l[k] = x0[k] * x1[k] * x2[k] * x3[k]
		}
	case 5:
		x0, x1, x2, x3, x4 := v[0][:len(l)], v[1][:len(l)], v[2][:len(l)], v[3][:len(l)], v[4][:len(l)]
		for k := range l {
			l[k] = x0[k] * x1[k] * x2[k] * x3[k] * x4[k]
		}
	default:
		x0, x1, x2, x3, x4, x5 := v[0][:len(l)], v[1][:len(l)], v[2][:len(l)], v[3][:len(l)], v[4][:len(l)], v[5][:len(l)]
		for k := range l {
			l[k] = x0[k] * x1[k] * x2[k] * x3[k] * x4[k] * x5[k]
		}
	}
}

// mulRow multiplies l by x cell by cell.
func mulRow(l, x []float64) {
	x = x[:len(l)]
	for k := range l {
		l[k] *= x[k]
	}
}

// solveF evaluates the balance equation for F_i at an interior cell.
// Every lattice point the staircases touch is non-negative (the n-a
// guard establishes that), so the products index f1/f2 directly
// instead of going through fAt's bounds checks.
func (s *MVASolver) solveF(i, n1, n2 int) float64 {
	n2w := s.sw.N2 + 1
	den := 1.0
	for r := range s.terms {
		t := &s.terms[r]
		a := t.a
		if n1-a < 0 || n2-a < 0 {
			continue
		}
		// L_ir(n - 1_i) = Q(n - aI)/Q(n - 1_i): staircase product from
		// (n - 1_i) down to (n - aI).
		l := 1.0
		if i == 1 {
			// From (n1-1, n2): direction 2 a times, then direction 1
			// a-1 times.
			p := (n1-1)*n2w + n2
			for k := 0; k < a; k++ {
				l *= s.f2[p]
				p--
			}
			for k := 0; k < a-1; k++ {
				l *= s.f1[p]
				p -= n2w
			}
		} else {
			// From (n1, n2-1): direction 1 a times, then direction 2
			// a-1 times.
			p := n1*n2w + n2 - 1
			for k := 0; k < a; k++ {
				l *= s.f1[p]
				p -= n2w
			}
			for k := 0; k < a-1; k++ {
				l *= s.f2[p]
				p--
			}
		}
		term := t.aRho * l
		if !t.poisson {
			term *= s.d[s.burstyOf[r]][(n1-a)*n2w+n2-a]
		}
		den += term
	}
	var ni float64
	if i == 1 {
		ni = float64(n1)
	} else {
		ni = float64(n2)
	}
	return ni / den
}

// burstyIndex returns the bursty slot of class r via the map built in
// NewMVASolver (the former linear scan made the fill O(N^2 R^2)).
func (s *MVASolver) burstyIndex(r int) int {
	if r >= 0 && r < len(s.burstyOf) && s.burstyOf[r] >= 0 {
		return s.burstyOf[r]
	}
	//lint:allow libpanic asking for the bursty slot of a Poisson class is a programming error, same contract as before the map
	panic(fmt.Sprintf("core: class %d is not bursty", r))
}

// Result returns the measures at the full switch size.
func (s *MVASolver) Result() *Result {
	return s.ResultAt(s.sw.N1, s.sw.N2)
}

// ResultAt returns the measures for the sub-switch (n1, n2), read off
// the solved ratio lattices.
func (s *MVASolver) ResultAt(n1, n2 int) *Result {
	if n1 < 1 || n2 < 1 || n1 > s.sw.N1 || n2 > s.sw.N2 {
		//lint:allow libpanic out-of-range lattice index is a caller bug, same contract as slice indexing
		panic(fmt.Sprintf("core: ResultAt(%d, %d) outside solved lattice %dx%d",
			n1, n2, s.sw.N1, s.sw.N2))
	}
	sub := Switch{N1: n1, N2: n2, Classes: s.sw.Classes}
	res := newResult(sub, "algorithm2")
	res.LogG = s.logG(n1, n2)
	for r, c := range sub.Classes {
		a := c.A
		if a > sub.MinN() {
			continue
		}
		h := s.ratio(n1, n2, a)
		res.NonBlocking[r] = h / (combin.Perm(n1, a) * combin.Perm(n2, a))
		// E_r(M) = H_r(M) (rho_r + (beta/mu) E_r(M - aI)) folded up the
		// diagonal chain; rho_r * H_r(M) for Poisson classes.
		e := 0.0
		for t := min(n1, n2)/a - 1; t >= 0; t-- {
			hm := s.ratio(n1-t*a, n2-t*a, a)
			if c.IsPoisson() {
				e = c.Rho() * hm
			} else {
				e = hm * (c.Rho() + c.BetaMu()*e)
			}
		}
		res.Concurrency[r] = e
	}
	res.finish()
	return res
}

// logG integrates ln Q along a lattice path and adds the factorials:
// ln G(N) = ln Q(N) + ln N1! + ln N2!, with
// ln Q(N) = -sum ln F_1(m1, 0) - sum ln F_2(N1, m2).
func (s *MVASolver) logG(n1, n2 int) float64 {
	lq := 0.0
	for m1 := 1; m1 <= n1; m1++ {
		lq -= math.Log(s.fAt(1, m1, 0))
	}
	for m2 := 1; m2 <= n2; m2++ {
		lq -= math.Log(s.fAt(2, n1, m2))
	}
	return lq + combin.LogFactorial(n1) + combin.LogFactorial(n2)
}
