package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"xbar/internal/combin"
	"xbar/internal/scale"
)

// The row-pass fill kernels of both algorithms must reproduce the
// per-cell fill bodies they replaced bit for bit: every Q, W, F and D
// cell, under every schedule. The reference below is those per-cell
// bodies verbatim — the Eq. 10 cell of Algorithm 1 (guarded band,
// interior, n1 = 0 row) and the switch-plus-solveF cell of Algorithm 2
// with its own copies of the staircase helpers — run sequentially on
// a solver whose lattices it overwrites.

// refFillAlg1 overwrites s's Q and W lattices with the per-cell
// reference fill.
func refFillAlg1(s *Solver) {
	n2w := s.sw.N2 + 1
	for n1 := 0; n1 <= s.sw.N1; n1++ {
		for n2 := 0; n2 <= s.sw.N2; n2++ {
			i := n1*n2w + n2
			if n1 == 0 {
				for j := range s.bursty {
					s.bursty[j].w[i] = scale.Acc{}
				}
				if n2 == 0 {
					s.q[0] = scale.One
					continue
				}
				var acc scale.Acc
				acc.Init(s.q[n2-1])
				s.q[n2] = acc.MulNorm(s.inv[n2])
				continue
			}
			var acc scale.Acc
			acc.Init(s.q[i-n2w])
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
	}
}

// refFillMVA overwrites s's F and D lattices with the per-cell
// reference fill.
func refFillMVA(s *MVASolver) {
	n2w := s.sw.N2 + 1
	for n1 := 0; n1 <= s.sw.N1; n1++ {
		for n2 := 0; n2 <= s.sw.N2; n2++ {
			i := n1*n2w + n2
			switch {
			case n1 == 0 && n2 == 0:
				s.f1[i], s.f2[i] = 0, 0
			case n2 == 0:
				s.f1[i], s.f2[i] = float64(n1), 0
			case n1 == 0:
				s.f1[i], s.f2[i] = 0, float64(n2)
			default:
				s.f1[i] = refSolveF(s, 1, n1, n2)
				s.f2[i] = refSolveF(s, 2, n1, n2)
			}
			for j, r := range s.burstyR {
				t := &s.terms[r]
				d := 1.0
				if n1 >= t.a && n2 >= t.a {
					h := refRatio(s, n1, n2, t.a)
					d = 1 + t.betaMu*h*refDAt(s, j, n1-t.a, n2-t.a)
				}
				s.d[j][i] = d
			}
		}
	}
}

func refSolveF(s *MVASolver, i, n1, n2 int) float64 {
	n2w := s.sw.N2 + 1
	den := 1.0
	for r := range s.terms {
		t := &s.terms[r]
		a := t.a
		if n1-a < 0 || n2-a < 0 {
			continue
		}
		l := 1.0
		if i == 1 {
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

func refFAt(s *MVASolver, i, n1, n2 int) float64 {
	if n1 < 0 || n2 < 0 {
		return 0
	}
	if i == 1 {
		return s.f1[s.idx(n1, n2)]
	}
	return s.f2[s.idx(n1, n2)]
}

func refRatio(s *MVASolver, n1, n2, a int) float64 {
	if n1-a < 0 || n2-a < 0 {
		return 0
	}
	h := 1.0
	p1, p2 := n1, n2
	for t := 0; t < a; t++ {
		h *= refFAt(s, 1, p1, p2)
		p1--
	}
	for t := 0; t < a; t++ {
		h *= refFAt(s, 2, p1, p2)
		p2--
	}
	return h
}

func refDAt(s *MVASolver, j, n1, n2 int) float64 {
	if n1 < 0 || n2 < 0 {
		return 1
	}
	return s.d[j][s.idx(n1, n2)]
}

// randomFillMix draws up to four classes with a_r in 1..3 of random
// BPP kind — Poisson, Pascal, or Bernoulli with an integer population
// at or above max(n1, n2) — at loads that keep blocking moderate.
func randomFillMix(rng *rand.Rand, n1, n2 int) []Class {
	classes := make([]Class, 1+rng.Intn(4))
	for r := range classes {
		a := 1 + rng.Intn(3)
		mu := 0.5 + 1.5*rng.Float64()
		alpha := (0.002 + 0.05*rng.Float64()) * mu / float64(a*a)
		c := Class{Name: fmt.Sprintf("c%d", r), A: a, Alpha: alpha, Mu: mu}
		switch rng.Intn(3) {
		case 1: // Pascal, beta/mu < 1
			c.Beta = mu * 0.9 * rng.Float64()
		case 2: // Bernoulli, population -alpha/beta an integer >= max(n1, n2)
			c.Beta = -alpha / float64(max(n1, n2)+rng.Intn(3*max(n1, n2)+1))
		}
		classes[r] = c
	}
	return classes
}

// fillRefShapes are the lattice sizes of TestFillMatchesPerCellReference:
// the 1x1 switch, switches narrower than the widest class, thin and
// rectangular lattices, and the miss-fill benchmark's range up to 192.
var fillRefShapes = []struct{ n1, n2 int }{
	{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 2}, {2, 5}, {4, 4}, {5, 3},
	{7, 30}, {30, 7}, {17, 17}, {40, 33}, {64, 64}, {96, 131}, {150, 97}, {192, 192},
}

// TestFillMatchesPerCellReference pins both algorithms' fills to the
// per-cell reference bodies above, bitwise, across random class mixes
// (up to four classes, a_r <= 3, all three BPP kinds), the shapes of
// fillRefShapes, and Algorithm 1's sequential and wavefront schedules.
// A few mixes with a_r of 4 and 5 cover the staircases longer than the
// fused six-factor products.
func TestFillMatchesPerCellReference(t *testing.T) {
	maxprocs(t, 4)
	rng := rand.New(rand.NewSource(20260612))
	for _, sh := range fillRefShapes {
		mixes := 6
		if sh.n1*sh.n2 > 90*90 {
			mixes = 3
		}
		for m := 0; m < mixes; m++ {
			sw := Switch{N1: sh.n1, N2: sh.n2, Classes: randomFillMix(rng, sh.n1, sh.n2)}
			checkFillAgainstReference(t, fmt.Sprintf("%dx%d/mix%d", sh.n1, sh.n2, m), sw)
		}
	}
	wide := []Class{
		{A: 4, Alpha: 0.0003, Beta: 0.0001, Mu: 1},
		{A: 1, Alpha: 0.02, Mu: 1},
		{A: 5, Alpha: 0.0001, Mu: 0.8},
	}
	for _, sh := range []struct{ n1, n2 int }{{3, 9}, {5, 5}, {12, 12}, {40, 33}} {
		sw := Switch{N1: sh.n1, N2: sh.n2, Classes: wide}
		checkFillAgainstReference(t, fmt.Sprintf("%dx%d/wide", sh.n1, sh.n2), sw)
	}
}

// checkFillAgainstReference fills sw with both algorithms, Algorithm 1
// also as wavefronts with tiles 1, 3 and 16, and compares every
// lattice cell bitwise against the per-cell reference.
func checkFillAgainstReference(t *testing.T, name string, sw Switch) {
	t.Helper()
	if err := sw.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref1 := loadSolver(t, sw)
	defer ref1.release()
	for i := range ref1.q {
		ref1.q[i] = scale.FromFloat64(math.MaxFloat64)
	}
	for _, b := range ref1.bursty {
		for i := range b.w {
			b.w[i].Init(scale.FromFloat64(math.MaxFloat64))
		}
	}
	refFillAlg1(ref1)
	ref2 := loadMVASolver(t, sw)
	defer ref2.release()
	for _, lat := range append([][]float64{ref2.f1, ref2.f2}, ref2.d...) {
		for i := range lat {
			lat[i] = math.NaN()
		}
	}
	refFillMVA(ref2)
	for _, sched := range []struct{ workers, tile int }{{1, 0}, {4, 1}, {3, 3}, {2, 16}} {
		name := fmt.Sprintf("%s/w%d_t%d", name, sched.workers, sched.tile)
		s1 := loadSolver(t, sw)
		if sched.tile > 0 {
			refillWavefront(s1, sched.workers, sched.tile)
		} else {
			s1.fill()
		}
		assertBitsEqual(t, name+"/Q", numberBits(s1.q), numberBits(ref1.q))
		for j := range s1.bursty {
			assertBitsEqual(t, fmt.Sprintf("%s/W%d", name, j), accBits(s1.bursty[j].w), accBits(ref1.bursty[j].w))
		}
		s1.release()
	}
	s2 := loadMVASolver(t, sw)
	defer s2.release()
	s2.fill()
	assertBitsEqual(t, name+"/F1", floatBits(s2.f1), floatBits(ref2.f1))
	assertBitsEqual(t, name+"/F2", floatBits(s2.f2), floatBits(ref2.f2))
	for j := range s2.d {
		assertBitsEqual(t, fmt.Sprintf("%s/D%d", name, j), floatBits(s2.d[j]), floatBits(ref2.d[j]))
	}
}

// cellBits is one lattice cell as raw bits: a float64 fraction and,
// for scaled cells, its binary exponent.
type cellBits struct {
	frac uint64
	exp  int
}

func floatBits(v []float64) []cellBits {
	out := make([]cellBits, len(v))
	for i, f := range v {
		out[i] = cellBits{frac: math.Float64bits(f)}
	}
	return out
}

// rawCell mirrors the field layout scale.Number and scale.Acc share
// (a float64 fraction, then an int exponent), so the test can read a
// cell's raw working value without widening the scale API.
type rawCell struct {
	frac float64
	exp  int
}

func numberBits(v []scale.Number) []cellBits {
	return rawBits(unsafe.Slice((*rawCell)(unsafe.Pointer(unsafe.SliceData(v))), len(v)))
}

func accBits(v []scale.Acc) []cellBits {
	return rawBits(unsafe.Slice((*rawCell)(unsafe.Pointer(unsafe.SliceData(v))), len(v)))
}

func rawBits(v []rawCell) []cellBits {
	out := make([]cellBits, len(v))
	for i, c := range v {
		out[i] = cellBits{frac: math.Float64bits(c.frac), exp: c.exp}
	}
	return out
}

func assertBitsEqual(t *testing.T, name string, got, want []cellBits) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, reference has %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: cell %d = %+v, reference %+v", name, i, got[i], want[i])
		}
	}
}

// refConcurrency is Solver.concurrency as it read before the chain
// walk went bottom-up: the diagonal chain collected top-down into a
// slice, then folded back up.
func refConcurrency(s *Solver, r, n1, n2 int) float64 {
	c := s.sw.Classes[r]
	a := c.A
	var depths []struct{ m1, m2 int }
	for m1, m2 := n1, n2; m1 >= a && m2 >= a; m1, m2 = m1-a, m2-a {
		depths = append(depths, struct{ m1, m2 int }{m1, m2})
	}
	e := 0.0
	for i := len(depths) - 1; i >= 0; i-- {
		d := depths[i]
		gRatio := s.at(d.m1-a, d.m2-a).Ratio(s.at(d.m1, d.m2)) /
			(combin.Perm(d.m1, a) * combin.Perm(d.m2, a))
		cc := combin.Perm(d.m1, a) * combin.Perm(d.m2, a)
		if c.IsPoisson() {
			e = c.Rho() * cc * gRatio
		} else {
			e = cc * gRatio * (c.Rho() + c.BetaMu()*e)
		}
	}
	return e
}

// refMVAConcurrency is the concurrency fold of MVASolver.ResultAt as
// it read before the chain walk went bottom-up.
func refMVAConcurrency(s *MVASolver, r, n1, n2 int) float64 {
	c := s.sw.Classes[r]
	a := c.A
	e := 0.0
	var chain []struct{ m1, m2 int }
	for m1, m2 := n1, n2; m1 >= a && m2 >= a; m1, m2 = m1-a, m2-a {
		chain = append(chain, struct{ m1, m2 int }{m1, m2})
	}
	for t := len(chain) - 1; t >= 0; t-- {
		d := chain[t]
		hm := s.ratio(d.m1, d.m2, a)
		if c.IsPoisson() {
			e = c.Rho() * hm
		} else {
			e = hm * (c.Rho() + c.BetaMu()*e)
		}
	}
	return e
}

// TestConcurrencyChainMatchesReference pins the bottom-up diagonal
// chain walks of Solver.ResultAt and MVASolver.ResultAt to the
// slice-collecting walks they replaced, bitwise, at every sub-switch
// of random mixes, and checks that ResultAt allocates only the Result
// and its two per-class slices.
func TestConcurrencyChainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range []struct{ n1, n2 int }{{1, 1}, {2, 7}, {9, 4}, {24, 24}, {37, 51}} {
		for m := 0; m < 4; m++ {
			sw := Switch{N1: sh.n1, N2: sh.n2, Classes: randomFillMix(rng, sh.n1, sh.n2)}
			s1, err := NewSolver(sw)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := NewMVASolver(sw)
			if err != nil {
				t.Fatal(err)
			}
			for n1 := 1; n1 <= sh.n1; n1++ {
				for n2 := 1; n2 <= sh.n2; n2++ {
					r1, r2 := s1.ResultAt(n1, n2), s2.ResultAt(n1, n2)
					for r, c := range sw.Classes {
						if c.A > min(n1, n2) {
							continue
						}
						if got, want := r1.Concurrency[r], refConcurrency(s1, r, n1, n2); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%dx%d class %d: algorithm 1 E = %v, reference %v", n1, n2, r, got, want)
						}
						if got, want := r2.Concurrency[r], refMVAConcurrency(s2, r, n1, n2); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%dx%d class %d: algorithm 2 E = %v, reference %v", n1, n2, r, got, want)
						}
					}
				}
			}
		}
	}
	sw := Switch{N1: 96, N2: 96, Classes: []Class{
		{A: 1, Alpha: 0.01, Mu: 1},
		{A: 2, Alpha: 0.002, Beta: 0.001, Mu: 1},
		{A: 3, Alpha: 0.001, Beta: -0.00001, Mu: 1},
	}}
	s1, err := NewSolver(sw)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewMVASolver(sw)
	if err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func(){
		"algorithm 1": func() { s1.ResultAt(96, 96) },
		"algorithm 2": func() { s2.ResultAt(96, 96) },
	} {
		if allocs := testing.AllocsPerRun(20, read); allocs > 4 {
			t.Errorf("%s ResultAt: %v allocs, want the Result and its three slices (4)", name, allocs)
		}
	}
}
