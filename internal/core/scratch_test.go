package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// threeBursty is a switch with three non-Poisson classes (two Pascal,
// one Bernoulli) and one Poisson class: the mix where the fill-only
// lattices outweigh the retained ones.
func threeBursty(n1, n2 int) Switch {
	return Switch{N1: n1, N2: n2, Classes: []Class{
		{Name: "p", A: 1, Alpha: 0.02, Mu: 1},
		{Name: "b1", A: 1, Alpha: 0.015, Beta: 0.004, Mu: 1},
		{Name: "b2", A: 2, Alpha: 0.003, Beta: 0.001, Mu: 0.5},
		{Name: "s3", A: 3, Alpha: 0.0005, Beta: -0.0005 / 300, Mu: 1},
	}}
}

// keepsNoFillScratch fails if s holds a W or D lattice, or a box of
// one, anywhere in its slices' capacity.
func keepsNoFillScratch(t *testing.T, s1 *Solver, s2 *MVASolver) {
	t.Helper()
	for j, b := range s1.bursty[:cap(s1.bursty)] {
		if b.w != nil || b.box != nil {
			t.Errorf("Algorithm 1 solver keeps the W lattice of bursty slot %d", j)
		}
	}
	for j, d := range s2.d[:cap(s2.d)] {
		if d != nil {
			t.Errorf("Algorithm 2 solver keeps the D grid of bursty slot %d", j)
		}
	}
	for j, box := range s2.dBox[:cap(s2.dBox)] {
		if box != nil {
			t.Errorf("Algorithm 2 solver keeps the D box of bursty slot %d", j)
		}
	}
}

// TestReuseKeepsOnlyReadLattices pins what a filled solver retains:
// after Reuse on a switch with three bursty classes, neither solver
// holds a W or D lattice, and every read is bit-identical to a fresh
// Solve/SolveMVA of the same sub-switch and to a fill whose W or D
// lattices were never released.
func TestReuseKeepsOnlyReadLattices(t *testing.T) {
	s1, s2 := &Solver{}, &MVASolver{}
	for _, sw := range []Switch{threeBursty(40, 33), threeBursty(12, 19), threeBursty(40, 40)} {
		if err := s1.Reuse(sw); err != nil {
			t.Fatal(err)
		}
		if err := s2.Reuse(sw); err != nil {
			t.Fatal(err)
		}
		keepsNoFillScratch(t, s1, s2)
		held1 := loadSolver(t, sw)
		held1.fill()
		held2 := loadMVASolver(t, sw)
		held2.fill()
		for _, p := range [][2]int{{sw.N1, sw.N2}, {sw.N1 - 3, sw.N2 - 1}, {5, 7}, {1, 1}} {
			sub := Switch{N1: p[0], N2: p[1], Classes: sw.Classes}
			fresh1, err := Solve(sub)
			if err != nil {
				t.Fatal(err)
			}
			fresh2, err := SolveMVA(sub)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name      string
				got, want *Result
			}{
				{"alg1/fresh", s1.ResultAt(p[0], p[1]), fresh1},
				{"alg1/held", s1.ResultAt(p[0], p[1]), held1.ResultAt(p[0], p[1])},
				{"alg2/fresh", s2.ResultAt(p[0], p[1]), fresh2},
				{"alg2/held", s2.ResultAt(p[0], p[1]), held2.ResultAt(p[0], p[1])},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Errorf("%dx%d %s at %v:\n got %+v\nwant %+v", sw.N1, sw.N2, c.name, p, c.got, c.want)
				}
			}
		}
		held1.release()
		held2.release()
	}
}

// TestConcurrentFillsShareScratch runs eight fills at once, each
// goroutine on its own solvers and its own bursty switch, all of one
// lattice size so every fill could use any scratch buffer. Every Q and
// F lattice must match a sequential fill bit for bit: a buffer lent to
// two fills at once would mix their W or D cells (run it under -race,
// too).
func TestConcurrentFillsShareScratch(t *testing.T) {
	maxprocs(t, 4)
	const workers = 8
	sws := make([]Switch, workers)
	want1 := make([]*Solver, workers)
	want2 := make([]*MVASolver, workers)
	for g := range sws {
		sws[g] = threeBursty(90, 70)
		for r := range sws[g].Classes {
			sws[g].Classes[r].Alpha *= 1 + float64(g)/10
		}
		var err error
		if want1[g], err = NewSolver(sws[g]); err != nil {
			t.Fatal(err)
		}
		if want2[g], err = NewMVASolver(sws[g]); err != nil {
			t.Fatal(err)
		}
	}
	start := make(chan struct{})
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for g := range sws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s1, s2 := &Solver{}, &MVASolver{}
			for rep := 0; rep < 8; rep++ {
				if err := s1.Reuse(sws[g]); err != nil {
					errs[g] = err.Error()
					return
				}
				if err := s2.Reuse(sws[g]); err != nil {
					errs[g] = err.Error()
					return
				}
				if !slices.Equal(s1.q, want1[g].q) {
					errs[g] = fmt.Sprintf("rep %d: Q lattice differs from the sequential fill", rep)
					return
				}
				if !slices.Equal(s2.f1, want2[g].f1) || !slices.Equal(s2.f2, want2[g].f2) {
					errs[g] = fmt.Sprintf("rep %d: F lattices differ from the sequential fill", rep)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
}

// TestScratchKeepsNoIdleBuffer pins the fill scratch's bound: a
// buffer left idle in the scratch through two garbage collections is
// freed, so the scratch retains nothing the fills are not using.
// (TestReuseAllocs pins the other half, that a buffer handed back is
// reused.)
func TestScratchKeepsNoIdleBuffer(t *testing.T) {
	b := floatScratch.take(4099)
	freed := make(chan struct{})
	runtime.SetFinalizer(&(*b)[0], func(*float64) { close(freed) })
	floatScratch.give(b)
	b = nil
	for gc := 0; gc < 10; gc++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Errorf("a buffer idle through ten collections is still retained")
}
