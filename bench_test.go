package xbar_test

import (
	"fmt"
	"testing"

	"xbar/internal/admission"
	"xbar/internal/clos"
	"xbar/internal/core"
	"xbar/internal/grid"
	"xbar/internal/hotspot"
	"xbar/internal/inputq"
	"xbar/internal/ipp"
	"xbar/internal/link"
	"xbar/internal/minnet"
	"xbar/internal/network"
	"xbar/internal/overflow"
	"xbar/internal/retrial"
	"xbar/internal/sim"
	"xbar/internal/slotted"
	"xbar/internal/statespace"
	"xbar/internal/traffic"
	"xbar/internal/transient"
	"xbar/internal/wdm"
	"xbar/internal/workload"
)

// Each benchmark regenerates one published table or figure (or one of
// the reproduction's own ablations); `go test -bench .` is therefore
// the full evaluation harness, and `make bench` renders its output to
// BENCH_<n>.json (see docs/PERFORMANCE.md). Every benchmark reports
// allocations and resets the timer after fixture setup so the JSON
// trajectory measures the loop, not the fixtures. The sink variables
// keep the compiler from eliding the work.

var (
	sinkSeries []workload.Series
	sinkRows   []workload.Table2Row
	sinkT1     []workload.Table1Row
	sinkRes    *core.Result
	sinkF      float64
)

func BenchmarkFigure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := workload.Figure1(workload.FigureNs())
		if err != nil {
			b.Fatal(err)
		}
		sinkSeries = s
	}
}

func BenchmarkFigure2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := workload.Figure2(workload.FigureNs())
		if err != nil {
			b.Fatal(err)
		}
		sinkSeries = s
	}
}

func BenchmarkFigure3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := workload.Figure3(workload.FigureNs())
		if err != nil {
			b.Fatal(err)
		}
		sinkSeries = s
	}
}

func BenchmarkFigure4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := workload.Figure4(workload.Figure4Ns())
		if err != nil {
			b.Fatal(err)
		}
		sinkSeries = s
	}
}

func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkT1 = workload.Table1(workload.Figure4Ns())
	}
}

func BenchmarkTable2(b *testing.B) {
	// One parameter set per sub-benchmark; each row includes the
	// central-difference bursty gradient (two extra full solves through
	// the recycled scratch solver).
	for _, set := range workload.Table2Sets() {
		set := set
		b.Run(fmt.Sprintf("set%d", set.Set), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := workload.Table2(set, workload.Table2Ns())
				if err != nil {
					b.Fatal(err)
				}
				sinkRows = rows
			}
		})
	}
}

// BenchmarkSweep is the amortization ablation: one max-size lattice
// fill serving every sub-size through core.SweepSolver, against a
// fresh per-size solve of the same fixed per-route model (the
// re-solve pattern the sweep layer replaced).
func BenchmarkSweep(b *testing.B) {
	classes := []core.Class{
		{Name: "p", A: 1, Alpha: 0.001, Mu: 1},
		{Name: "b", A: 1, Alpha: 0.001, Beta: 0.0005, Mu: 1},
	}
	const maxN = 64
	b.Run("amortized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweep, err := core.NewSweepSolver(core.Switch{N1: maxN, N2: maxN, Classes: classes})
			if err != nil {
				b.Fatal(err)
			}
			for n := 1; n <= maxN; n++ {
				sinkF = sweep.ResultAt(n, n).Blocking[0]
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for n := 1; n <= maxN; n++ {
				res, err := core.Solve(core.Switch{N1: n, N2: n, Classes: classes})
				if err != nil {
					b.Fatal(err)
				}
				sinkF = res.Blocking[0]
			}
		}
	})
}

// gridFigurePoints builds a figure-style batch in per-route units: each
// curve holds its per-route class fixed while the size axis sweeps, so
// every curve is ONE canonical model and the whole curve reads off one
// max-size lattice. (The published figures use aggregate units, whose
// C(N2,a) normalization makes every size a distinct per-route model;
// per-route grids are where the class-factored engine earns its keep.)
func gridFigurePoints(seriesClasses [][]core.Class, ns []int) []core.Switch {
	var points []core.Switch
	for _, classes := range seriesClasses {
		for _, n := range ns {
			points = append(points, core.Switch{N1: n, N2: n, Classes: classes})
		}
	}
	return points
}

func denseNs(lo, hi, step int) []int {
	var ns []int
	for n := lo; n <= hi; n += step {
		ns = append(ns, n)
	}
	return ns
}

// benchGridAB runs the engine/fresh ablation over one batch: a cold
// grid.Engine per iteration (the measured win is batch grouping, not
// cross-call memo warmth) against the per-point re-solve pattern the
// engine replaced.
func benchGridAB(b *testing.B, points []core.Switch) {
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := grid.New(grid.Options{})
			res, err := eng.Solve(points)
			if err != nil {
				b.Fatal(err)
			}
			sinkF = res[len(res)-1].Blocking[0]
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, sw := range points {
				res, err := core.Solve(sw)
				if err != nil {
					b.Fatal(err)
				}
				sinkF = res.Blocking[0]
			}
		}
	})
}

// BenchmarkGridFigure2Style is a Figure 2-shaped grid (four burstiness
// curves over a dense size axis) on the batched engine versus fresh
// per-point solves. Each curve collapses to one 64x64 fill.
func BenchmarkGridFigure2Style(b *testing.B) {
	var series [][]core.Class
	for _, bt := range []float64{0, 0.0005, 0.001, 0.002} {
		series = append(series, []core.Class{{Name: "peaky", A: 1, Alpha: 0.001, Beta: bt, Mu: 1}})
	}
	benchGridAB(b, gridFigurePoints(series, denseNs(4, 64, 4)))
}

// BenchmarkGridFigure4Style is a Figure 4-shaped grid (bandwidth a=1
// versus a=2 at fixed per-route load, dense sizes) on the batched
// engine versus fresh per-point solves.
func BenchmarkGridFigure4Style(b *testing.B) {
	series := [][]core.Class{
		{{Name: "a1", A: 1, Alpha: 0.002, Mu: 1}},
		{{Name: "a2", A: 2, Alpha: 0.0008, Mu: 1}},
	}
	benchGridAB(b, gridFigurePoints(series, denseNs(4, 64, 4)))
}

// BenchmarkGridFixedPoint measures the delta-aware fixed point on a
// symmetric eight-switch ring: every iteration produces eight bitwise
// identical thinned operating points, which the batched engine
// collapses to one lattice fill ("memo") while the ablation solves all
// eight ("fresh").
func BenchmarkGridFixedPoint(b *testing.B) {
	const ringN = 8
	var net network.Network
	for i := 0; i < ringN; i++ {
		net.Switches = append(net.Switches, network.Dim{N1: 32, N2: 32})
	}
	for i := 0; i < ringN; i++ {
		net.Routes = append(net.Routes, network.Route{
			Name: fmt.Sprintf("local%d", i), Path: []int{i}, Rate: 2.4, Mu: 1,
		})
	}
	for i := 0; i < ringN; i++ {
		net.Routes = append(net.Routes, network.Route{
			Name: fmt.Sprintf("hop%d", i), Path: []int{i, (i + 1) % ringN}, Rate: 1.6, Mu: 1,
		})
	}
	for _, mode := range []struct {
		name   string
		noMemo bool
	}{{"memo", false}, {"fresh", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fp, err := network.FixedPointWith(net, network.FPConfig{
					Tol: 1e-10, MaxIter: 500, NoMemo: mode.noMemo,
				})
				if err != nil {
					b.Fatal(err)
				}
				sinkF = fp.RouteBlocking[0]
			}
		})
	}
}

// BenchmarkSimValidation is the "compare with simulation" experiment
// at one Figure 1 operating point, sized for benchmarking rather than
// tight confidence intervals.
func BenchmarkSimValidation(b *testing.B) {
	sw := core.NewSwitch(16, 16,
		core.AggregateClass{Name: "p", A: 1, AlphaTilde: 0.0024, Mu: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Switch: sw, Seed: uint64(i + 1), Warmup: 500, Horizon: 10000,
		})
		if err != nil {
			b.Fatal(err)
		}
		sinkF = res.Classes[0].CallBlocking.Mean
	}
}

// BenchmarkAlg1VsAlg2 is the runtime half of Ablation A: the scaled
// convolution recursion against the mean-value recursion across
// system sizes (accuracy is covered by tests).
func BenchmarkAlg1VsAlg2(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		sw := core.NewSwitch(n, n,
			core.AggregateClass{Name: "p", A: 1, AlphaTilde: 0.0012, Mu: 1},
			core.AggregateClass{Name: "b", A: 1, AlphaTilde: 0.0012, BetaTilde: 0.0012, Mu: 1},
		)
		b.Run(fmt.Sprintf("alg1/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(sw)
				if err != nil {
					b.Fatal(err)
				}
				sinkRes = res
			}
		})
		b.Run(fmt.Sprintf("alg2/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.SolveMVA(sw)
				if err != nil {
					b.Fatal(err)
				}
				sinkRes = res
			}
		})
	}
	// The exponential-cost ground-truth evaluators, at a size they can
	// still handle, for scale.
	small := core.NewSwitch(12, 12,
		core.AggregateClass{Name: "p", A: 1, AlphaTilde: 0.0012, Mu: 1},
		core.AggregateClass{Name: "b", A: 1, AlphaTilde: 0.0012, BetaTilde: 0.0012, Mu: 1},
	)
	b.Run("direct/N=12", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.SolveDirect(small)
			if err != nil {
				b.Fatal(err)
			}
			sinkRes = res
		}
	})
	b.Run("convolution/N=12", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.SolveConvolution(small)
			if err != nil {
				b.Fatal(err)
			}
			sinkRes = res
		}
	})
}

// BenchmarkAsymptoticVsExact is the dispatch-tier crossover
// measurement behind docs/PERFORMANCE.md §9: the O(R) saddle-point
// expansion against the O(N1*N2) exact lattice fill, per traffic type
// (pure Poisson and a bursty BPP mix), at sizes bracketing the default
// dispatch cutoff. The exact arm stops at N=1024 — one 4096x4096 fill
// is minutes of wall clock, which is precisely the regime the
// asymptotic tier exists for.
func BenchmarkAsymptoticVsExact(b *testing.B) {
	mixes := []struct {
		name    string
		classes func(n int) core.Switch
	}{
		{"poisson", func(n int) core.Switch {
			return core.NewSwitch(n, n,
				core.AggregateClass{Name: "p", A: 1, AlphaTilde: 1.12, Mu: 1})
		}},
		{"bpp", func(n int) core.Switch {
			return core.NewSwitch(n, n,
				core.AggregateClass{Name: "b1", A: 1, AlphaTilde: 0.56, BetaTilde: 0.28, Mu: 1},
				core.AggregateClass{Name: "b2", A: 2, AlphaTilde: 0.28, BetaTilde: 0.14, Mu: 0.5})
		}},
	}
	for _, mix := range mixes {
		for _, n := range []int{256, 1024, 4096} {
			sw := mix.classes(n)
			b.Run(fmt.Sprintf("%s/N=%d/asym", mix.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := core.SolveAsymptotic(sw)
					if err != nil {
						b.Fatal(err)
					}
					sinkRes = res
				}
			})
			if n > 1024 {
				continue
			}
			b.Run(fmt.Sprintf("%s/N=%d/exact", mix.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := core.Solve(sw)
					if err != nil {
						b.Fatal(err)
					}
					sinkRes = res
				}
			})
		}
	}
}

// BenchmarkCrossCheckAllocs pins the allocation behavior of the exact
// cross-check evaluators after the coefficient-buffer reuse: the
// direct state sum at its feasible scale and the convolution evaluator
// at a production size (its cost is polynomial, so N=64 is cheap). The
// allocs/op column is the guarded quantity — each solve now recycles
// its Phi/Psi tables and convolution vectors internally instead of
// allocating per class.
func BenchmarkCrossCheckAllocs(b *testing.B) {
	classes := []core.AggregateClass{
		{Name: "p", A: 1, AlphaTilde: 0.0012, Mu: 1},
		{Name: "b", A: 2, AlphaTilde: 0.0008, BetaTilde: 0.0004, Mu: 1},
	}
	b.Run("direct/N=12", func(b *testing.B) {
		sw := core.NewSwitch(12, 12, classes...)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.SolveDirect(sw)
			if err != nil {
				b.Fatal(err)
			}
			sinkRes = res
		}
	})
	b.Run("convolution/N=64", func(b *testing.B) {
		sw := core.NewSwitch(64, 64, classes...)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.SolveConvolution(sw)
			if err != nil {
				b.Fatal(err)
			}
			sinkRes = res
		}
	})
}

// BenchmarkParallelFill measures the lattice fill proper across system
// sizes, on the schedule the solvers pick: Algorithm 1 fills as a
// wavefront on GOMAXPROCS workers above N = 512 and sequentially
// below, Algorithm 2 always sequentially (the table of
// docs/PERFORMANCE.md §4). The solver is built once and recycled with
// Reuse, so an iteration is exactly one Q/W (or F/D) fill: no per-op
// lattice allocation and no GC tax, unlike the fresh-solver numbers of
// BenchmarkAlg1VsAlg2.
func BenchmarkParallelFill(b *testing.B) {
	for _, n := range []int{64, 256, 512, 1024} {
		sw := core.NewSwitch(n, n,
			core.AggregateClass{Name: "p", A: 1, AlphaTilde: 0.0012, Mu: 1},
			core.AggregateClass{Name: "b", A: 1, AlphaTilde: 0.0012, BetaTilde: 0.0012, Mu: 1},
		)
		b.Run(fmt.Sprintf("alg1/N=%d", n), func(b *testing.B) {
			s, err := core.NewSolver(sw)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Reuse(sw); err != nil {
					b.Fatal(err)
				}
			}
			sinkRes = s.Result()
		})
		b.Run(fmt.Sprintf("alg2/N=%d", n), func(b *testing.B) {
			s, err := core.NewMVASolver(sw)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Reuse(sw); err != nil {
					b.Fatal(err)
				}
			}
			sinkRes = s.Result()
		})
	}
}

// BenchmarkFillMixes times one lattice fill of each algorithm at
// N = 144, recycled through Reuse (no allocation is measured), across
// the class mixes xbard serves: the paper's Poisson-plus-bursty figure
// mix, which has its own fused cell kernel, and the multirate mixes of
// mixed BPP kinds that take the generic row-pass kernels. P is Poisson,
// B Pascal (peaky), b Bernoulli (smooth); the digit is a_r.
func BenchmarkFillMixes(b *testing.B) {
	const n = 144
	p := func(a int) core.AggregateClass {
		return core.AggregateClass{Name: fmt.Sprintf("P%d", a), A: a, AlphaTilde: 0.0012 / float64(a), Mu: 1}
	}
	pascal := func(a int) core.AggregateClass {
		return core.AggregateClass{Name: fmt.Sprintf("B%d", a), A: a, AlphaTilde: 0.0012 / float64(a), BetaTilde: 0.0006 / float64(a), Mu: 1}
	}
	bernoulli := func(a int) core.AggregateClass {
		alpha := 0.0012 / float64(a)
		return core.AggregateClass{Name: fmt.Sprintf("b%d", a), A: a, AlphaTilde: alpha, BetaTilde: -alpha / 200, Mu: 1}
	}
	mixes := []struct {
		name    string
		classes []core.AggregateClass
	}{
		{"P1B1", []core.AggregateClass{p(1), pascal(1)}},
		{"B1B2", []core.AggregateClass{pascal(1), pascal(2)}},
		{"P1P2", []core.AggregateClass{p(1), p(2)}},
		{"B1b2", []core.AggregateClass{pascal(1), bernoulli(2)}},
		{"P1B2b3", []core.AggregateClass{p(1), pascal(2), bernoulli(3)}},
		{"B1B2B3", []core.AggregateClass{pascal(1), pascal(2), pascal(3)}},
		{"P1P2P3", []core.AggregateClass{p(1), p(2), p(3)}},
	}
	for _, m := range mixes {
		sw := core.NewSwitch(n, n, m.classes...)
		b.Run("alg1/"+m.name, func(b *testing.B) {
			s, err := core.NewSolver(sw)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Reuse(sw); err != nil {
					b.Fatal(err)
				}
			}
			sinkRes = s.Result()
		})
		b.Run("alg2/"+m.name, func(b *testing.B) {
			s, err := core.NewMVASolver(sw)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Reuse(sw); err != nil {
					b.Fatal(err)
				}
			}
			sinkRes = s.Result()
		})
	}
}

// BenchmarkBaselines is Ablation B: the pooled link, the slotted
// crossbar and the MIN against the asynchronous crossbar.
func BenchmarkBaselines(b *testing.B) {
	b.Run("link", func(b *testing.B) {
		l := link.Link{C: 32, Classes: []link.Class{{A: 1, Alpha: 9.6, Mu: 1}}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := link.Solve(l)
			if err != nil {
				b.Fatal(err)
			}
			sinkF = res.Blocking[0]
		}
	})
	b.Run("crossbar", func(b *testing.B) {
		l := link.Link{C: 32, Classes: []link.Class{{A: 1, Alpha: 9.6, Mu: 1}}}
		sw := l.CrossbarEquivalent()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Solve(sw)
			if err != nil {
				b.Fatal(err)
			}
			sinkF = res.Blocking[0]
		}
	})
	b.Run("slotted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := slotted.Simulate(16, 16, 0.9, 2000, uint64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			sinkF = res.PerOutput.Mean
		}
	})
	b.Run("minnet", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := minnet.Simulate(16, 1.0, 2000, uint64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			sinkF = res.PerOutput.Mean
		}
	})
}

// BenchmarkNetwork is the source-routed optical network extension:
// fixed point and simulation of a three-hop tandem.
func BenchmarkNetwork(b *testing.B) {
	net := network.Network{
		Switches: []network.Dim{{N1: 8, N2: 8}, {N1: 8, N2: 8}, {N1: 8, N2: 8}},
		Routes: []network.Route{
			{Name: "3-hop", Path: []int{0, 1, 2}, Rate: 1.2, Mu: 1},
			{Name: "left", Path: []int{0}, Rate: 1.6, Mu: 1},
			{Name: "right", Path: []int{2}, Rate: 1.6, Mu: 1},
		},
	}
	b.Run("fixedpoint", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fp, err := network.FixedPoint(net, 1e-10, 500)
			if err != nil {
				b.Fatal(err)
			}
			sinkF = fp.RouteBlocking[0]
		}
	})
	b.Run("simulate", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := network.Simulate(net, network.SimConfig{
				Seed: uint64(i + 1), Warmup: 200, Horizon: 5000,
			})
			if err != nil {
				b.Fatal(err)
			}
			sinkF = res.RouteBlocking[0].Mean
		}
	})
}

// BenchmarkAdmission is the trunk-reservation sweep: |Gamma| exact
// CTMC solves per limit value.
func BenchmarkAdmission(b *testing.B) {
	sw := core.Switch{N1: 4, N2: 4, Classes: []core.Class{
		{Name: "gold", A: 1, Alpha: 0.05, Mu: 1},
		{Name: "lead", A: 1, Alpha: 0.08, Mu: 1},
	}}
	weights := []float64{1.0, 0.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, _, err := admission.OptimizeReservation(sw, weights, 1, 100000)
		if err != nil {
			b.Fatal(err)
		}
		sinkF = best.Revenue
	}
}

// BenchmarkIPP is the bursty-approximation experiment: one on/off
// fabric simulation plus the BPP-fit analytic solve. ipp.Design is
// fixture setup and stays outside the timed region.
func BenchmarkIPP(b *testing.B) {
	src, err := ipp.Design(1.5, 1.6, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ipp.SimulateCrossbar(6, 6, src, 1, ipp.SimConfig{
			Seed: uint64(i + 1), Warmup: 200, Horizon: 5000,
		})
		if err != nil {
			b.Fatal(err)
		}
		approx, err := ipp.BPPApprox(6, 6, src, 1)
		if err != nil {
			b.Fatal(err)
		}
		sinkF = approx.Blocking[0] - (1 - res.TimeNonBlocking.Mean)
	}
}

// BenchmarkClos simulates the strict-sense nonblocking configuration.
func BenchmarkClos(b *testing.B) {
	net := clos.Network{M: 15, N: 8, R: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := clos.Simulate(net, clos.SimConfig{
			PerInputLoad: 0.6, Mu: 1, Policy: clos.RandomAvailable,
			Seed: uint64(i + 1), Warmup: 100, Horizon: 3000,
		})
		if err != nil {
			b.Fatal(err)
		}
		sinkF = res.CallBlocking.Mean
	}
}

// BenchmarkTransient uniformizes a cold-start trajectory on a
// Table 2 switch.
func BenchmarkTransient(b *testing.B) {
	sw := workload.Table2Switch(workload.Table2Sets()[0], 8)
	chain, err := statespace.NewChain(sw, 100000)
	if err != nil {
		b.Fatal(err)
	}
	pi0, err := transient.EmptyStart(chain)
	if err != nil {
		b.Fatal(err)
	}
	times := []float64{0.5, 1, 2, 4, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traj, err := transient.BlockingTrajectory(chain, pi0, 0, times, transient.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sinkF = traj[len(traj)-1]
	}
}

// BenchmarkHotspot solves and simulates the non-uniform access model.
func BenchmarkHotspot(b *testing.B) {
	m := hotspot.Model{N1: 8, N2: 8, Lambda: 4, Mu: 1, HotFraction: 0.4}
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := hotspot.Solve(m)
			if err != nil {
				b.Fatal(err)
			}
			sinkF = res.HotNonBlocking
		}
	})
	b.Run("simulate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := hotspot.Simulate(m, hotspot.SimConfig{
				Seed: uint64(i + 1), Warmup: 200, Horizon: 5000,
			})
			if err != nil {
				b.Fatal(err)
			}
			sinkF = res.HotBlocking.Mean
		}
	})
}

// BenchmarkWDM measures the wavelength-continuity path simulation.
func BenchmarkWDM(b *testing.B) {
	p := wdm.Path{L: 4, W: 8, Rate: 2, CrossRate: 2.5, Mu: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := wdm.Simulate(p, wdm.SimConfig{
			Seed: uint64(i + 1), Warmup: 200, Horizon: 5000,
		})
		if err != nil {
			b.Fatal(err)
		}
		sinkF = res.EndToEndBlocking.Mean
	}
}

// BenchmarkRetrial simulates the retry-feedback model.
func BenchmarkRetrial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := retrial.Run(retrial.Config{
			N1: 6, N2: 6, Lambda: 4, Mu: 1,
			MaxAttempts: 4, RetryRate: 2,
			Seed: uint64(i + 1), Warmup: 200, Horizon: 5000,
		})
		if err != nil {
			b.Fatal(err)
		}
		sinkF = res.Abandonment.Mean
	}
}

// BenchmarkTraffic runs the Sinkhorn balancing plus a matrix-weighted
// simulation.
func BenchmarkTraffic(b *testing.B) {
	skewed := traffic.NewUniform(8, 8)
	for j := 0; j < 8; j++ {
		skewed[0][j] += 4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		balanced, err := skewed.Sinkhorn(1e-10, 100000)
		if err != nil {
			b.Fatal(err)
		}
		res, err := traffic.Simulate(balanced, traffic.SimConfig{
			Lambda: 7, Mu: 1, Seed: uint64(i + 1), Warmup: 200, Horizon: 5000,
		})
		if err != nil {
			b.Fatal(err)
		}
		sinkF = res.Blocking.Mean
	}
}

// BenchmarkOverflow runs the two-stage overflow system.
func BenchmarkOverflow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := overflow.Run(overflow.Config{
			PrimaryN: 3, SecondaryN: 6, Lambda: 1.5, Mu: 1,
			Seed: uint64(i + 1), Warmup: 200, Horizon: 5000,
		})
		if err != nil {
			b.Fatal(err)
		}
		sinkF = res.SecondaryBlocking.Mean
	}
}

// BenchmarkInputQueued measures the slotted HOL-contention simulator.
func BenchmarkInputQueued(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ci, err := inputq.SaturationThroughput(16, 5000, inputq.InputQueued, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		sinkF = ci.Mean
	}
}
