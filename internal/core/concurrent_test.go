package core_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"xbar/internal/core"
	"xbar/internal/revenue"
)

// concurrentMixes are the class mixes TestSweepConcurrentReads reads:
// Poisson, Pascal (beta > 0) and Bernoulli (beta < 0, integer
// population) classes with bandwidths up to 3.
var concurrentMixes = []struct {
	name    string
	classes []core.Class
}{
	{"poisson-pascal", []core.Class{
		{Name: "p1", A: 1, Alpha: 0.02, Mu: 1},
		{Name: "peaky2", A: 2, Alpha: 0.003, Beta: 0.001, Mu: 0.5},
	}},
	{"all-three", []core.Class{
		{Name: "peaky1", A: 1, Alpha: 0.015, Beta: 0.004, Mu: 1},
		{Name: "smooth2", A: 2, Alpha: 0.004, Beta: -0.0002, Mu: 1},
		{Name: "p3", A: 3, Alpha: 0.0005, Mu: 1},
	}},
}

// sweepReads is everything one reader takes off a filled sweep layer:
// the Result at every sub-size in row-major order, W at every
// sub-size, each class's shadow cost, and (Algorithm 1 only) each
// Pascal class's dW/d(beta/mu) from an Analysis of the reader's own.
type sweepReads struct {
	results []*core.Result
	w       []float64
	shadow  []float64
	grad    []float64
}

// sweepReader is the read surface SweepSolver and MVASweepSolver share.
type sweepReader interface {
	ResultAt(n1, n2 int) *core.Result
	WAt(weights []float64, n1, n2 int) float64
	ShadowCost(weights []float64, r int) float64
}

func readSweep(t *testing.T, sw core.Switch, lat sweepReader, weights []float64) sweepReads {
	var out sweepReads
	for n1 := 1; n1 <= sw.N1; n1++ {
		for n2 := 1; n2 <= sw.N2; n2++ {
			out.results = append(out.results, lat.ResultAt(n1, n2))
			out.w = append(out.w, lat.WAt(weights, n1, n2))
		}
	}
	for r := range sw.Classes {
		out.shadow = append(out.shadow, lat.ShadowCost(weights, r))
	}
	if sweep, ok := lat.(*core.SweepSolver); ok {
		an, err := revenue.NewWithSweep(sweep, weights)
		if err != nil {
			t.Error(err)
			return out
		}
		for r, c := range sw.Classes {
			if revenue.HasBetaMuGradient(c, sw) {
				out.grad = append(out.grad, an.GradientBetaMu(r, 1e-4))
			}
		}
	}
	return out
}

// sameBits reports the first difference between two reads, compared
// bit for bit, or "" when they are identical.
func sameBits(got, want sweepReads) string {
	floatsDiffer := func(what string, g, w []float64) string {
		if len(g) != len(w) {
			return fmt.Sprintf("%s: %d values, want %d", what, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Sprintf("%s[%d] = %x, want %x", what, i, g[i], w[i])
			}
		}
		return ""
	}
	if len(got.results) != len(want.results) {
		return fmt.Sprintf("%d results, want %d", len(got.results), len(want.results))
	}
	for i, w := range want.results {
		g := got.results[i]
		tag := fmt.Sprintf("ResultAt(%d, %d)", w.Switch.N1, w.Switch.N2)
		if g.Switch.N1 != w.Switch.N1 || g.Switch.N2 != w.Switch.N2 || g.Method != w.Method {
			return fmt.Sprintf("%s read %dx%d %s", tag, g.Switch.N1, g.Switch.N2, g.Method)
		}
		for _, d := range []string{
			floatsDiffer(tag+".LogG", []float64{g.LogG}, []float64{w.LogG}),
			floatsDiffer(tag+".NonBlocking", g.NonBlocking, w.NonBlocking),
			floatsDiffer(tag+".Blocking", g.Blocking, w.Blocking),
			floatsDiffer(tag+".Concurrency", g.Concurrency, w.Concurrency),
		} {
			if d != "" {
				return d
			}
		}
	}
	for _, d := range []string{
		floatsDiffer("WAt", got.w, want.w),
		floatsDiffer("ShadowCost", got.shadow, want.shadow),
		floatsDiffer("GradientBetaMu", got.grad, want.grad),
	} {
		if d != "" {
			return d
		}
	}
	return ""
}

// TestSweepConcurrentReads pins the sweep layers' concurrency
// contract: a filled SweepSolver or MVASweepSolver is read-only, so
// any number of goroutines may read it at once — including racing
// first reads of one memo point — and every value they get is
// bit-identical to a sequential read of a fresh solver. Each reader
// builds its own revenue Analysis on the shared Algorithm 1 lattice.
// Run it under -race: a memo map without its lock fails there.
func TestSweepConcurrentReads(t *testing.T) {
	const readers = 8
	for _, mix := range concurrentMixes {
		sw := core.Switch{N1: 14, N2: 11, Classes: mix.classes}
		weights := make([]float64, len(mix.classes))
		for r := range weights {
			weights[r] = float64(r + 1)
		}
		for _, alg := range []struct {
			name string
			fill func(core.Switch) (sweepReader, error)
		}{
			{"alg1", func(sw core.Switch) (sweepReader, error) { return core.NewSweepSolver(sw) }},
			{"alg2", func(sw core.Switch) (sweepReader, error) { return core.NewMVASweepSolver(sw) }},
		} {
			t.Run(mix.name+"/"+alg.name, func(t *testing.T) {
				fresh, err := alg.fill(sw)
				if err != nil {
					t.Fatal(err)
				}
				want := readSweep(t, sw, fresh, weights)
				shared, err := alg.fill(sw)
				if err != nil {
					t.Fatal(err)
				}
				start := make(chan struct{})
				var wg sync.WaitGroup
				for g := 0; g < readers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						if d := sameBits(readSweep(t, sw, shared, weights), want); d != "" {
							t.Errorf("reader %d: %s", g, d)
						}
					}()
				}
				close(start)
				wg.Wait()
			})
		}
	}
}
