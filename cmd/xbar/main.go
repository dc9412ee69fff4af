// Command xbar is the analytical calculator for the asynchronous
// multi-rate crossbar model: it evaluates blocking, concurrency,
// throughput, utilization and (optionally) revenue measures for a
// switch and traffic mix given on the command line.
//
// Usage:
//
//	xbar -n1 128 -n2 128 \
//	     -class voice:1:0.0024:0:1 \
//	     -class video:2:0.001:0.0005:0.5 \
//	     [-alg alg1|alg2|direct|conv] [-weights 1,0.0001] [-occupancy] \
//	     [-dispatch exact|auto|asymptotic] [-tolerance e] \
//	     [-cpuprofile f] [-memprofile f] [-trace f]
//
// The alg1 evaluator fills switches above 512x512 as a wavefront on
// GOMAXPROCS workers and smaller ones sequentially; alg2 always fills
// sequentially. The profiling flags write standard Go pprof/trace
// artifacts.
//
// -dispatch enables the large-N tier: auto answers from the
// saddle-point expansion when the switch is past the dispatch cutoff
// and the expansion's error bound is within -tolerance, falling back
// to the exact recursion otherwise; asymptotic forces the expansion.
// Asymptotic answers report the per-class relative error bound in the
// err<= column. Dispatch composes with the alg1 evaluator only.
//
// Each -class flag is name:a:alphaTilde:betaTilde:mu in the paper's
// aggregate ("tilde") units: intensity per particular input set over
// all C(N2,a) output sets.
//
// Alternatively, -scenario spec.json evaluates one declarative
// scenario spec (see docs/SCENARIOS.md) through the unified scenario
// engine — any of the ten disciplines, analytic and simulation
// measures alike — and prints its measure table. "-" reads the spec
// from stdin. The model flags above do not apply in this mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"xbar/internal/cli"
	"xbar/internal/core"
	"xbar/internal/report"
	"xbar/internal/revenue"
	"xbar/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xbar", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n1 := fs.Int("n1", 16, "number of switch inputs")
	n2 := fs.Int("n2", 16, "number of switch outputs")
	alg := fs.String("alg", "alg1", "evaluator: alg1 (scaled recursion), alg2 (mean value), direct (state sum), conv (convolution)")
	weights := fs.String("weights", "", "comma-separated revenue weights, one per class; enables the revenue report")
	occupancy := fs.Bool("occupancy", false, "print the occupancy distribution (conv evaluator)")
	dispatch := fs.String("dispatch", "", "large-N tier policy: exact, auto or asymptotic (empty = plain -alg evaluator)")
	scenarioPath := fs.String("scenario", "", `declarative scenario spec to evaluate (JSON file, "-" = stdin); replaces the model flags`)
	tolerance := fs.Float64("tolerance", 0, "largest per-class relative error bound auto dispatch accepts (0 = default)")
	prof := cli.NewProfiler(fs)
	var classes cli.ClassFlag
	fs.Var(&classes, "class", "traffic class name:a:alphaTilde:betaTilde:mu (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "xbar: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "xbar:", err)
		return 1
	}

	stopProf, err := prof.Start()
	if err != nil {
		return fail(err)
	}

	if *scenarioPath != "" {
		if err := runScenario(*scenarioPath, stdout); err != nil {
			return fail(err)
		}
		if err := stopProf(); err != nil {
			return fail(err)
		}
		return 0
	}

	if len(classes) == 0 {
		classes = cli.ClassFlag{{Name: "default", A: 1, AlphaTilde: 0.0024, Mu: 1}}
	}
	sw := core.NewSwitch(*n1, *n2, classes...)

	var res *core.Result
	switch {
	case *dispatch != "":
		if *alg != "alg1" {
			return fail(fmt.Errorf("-dispatch composes with the alg1 evaluator only, not %q", *alg))
		}
		var pol core.Dispatch
		if pol, err = core.ParseDispatch(*dispatch); err == nil {
			res, err = core.SolveAuto(sw, core.DispatchOptions{Policy: pol, Tolerance: *tolerance})
		}
	case *tolerance != 0: //lint:allow floatcmp flag default sentinel
		return fail(fmt.Errorf("-tolerance requires -dispatch"))
	case *alg == "alg1":
		res, err = core.Solve(sw)
	case *alg == "alg2":
		res, err = core.SolveMVA(sw)
	case *alg == "direct":
		res, err = core.SolveDirect(sw)
	case *alg == "conv":
		res, err = core.SolveConvolution(sw)
	default:
		err = fmt.Errorf("unknown evaluator %q", *alg)
	}
	if err != nil {
		return fail(err)
	}
	asym := res.Tier == core.TierAsymptotic

	tier := ""
	if res.Tier != "" {
		tier = ", tier " + res.Tier
	}
	fmt.Fprintf(stdout, "%dx%d asynchronous crossbar (%s%s), ln G = %.6f, utilization %.4f\n\n",
		sw.N1, sw.N2, res.Method, tier, res.LogG, res.Utilization())
	headers := []string{"class", "a", "rho(route)", "Z", "blocking", "non-blocking", "E[k]", "throughput"}
	if asym {
		headers = append(headers, "err<=")
	}
	var rows [][]string
	for i, c := range sw.Classes {
		row := []string{
			c.Name,
			strconv.Itoa(c.A),
			report.FormatFloat(c.Rho()),
			fmt.Sprintf("%.4f", c.BPP().Peakedness()),
			report.FormatFloat(res.Blocking[i]),
			report.FormatFloat(res.NonBlocking[i]),
			report.FormatFloat(res.Concurrency[i]),
			report.FormatFloat(res.Throughput(i)),
		}
		if asym {
			row = append(row, report.FormatFloat(res.ErrorBound[i]))
		}
		rows = append(rows, row)
	}
	if err := report.Table(stdout, headers, rows); err != nil {
		return fail(err)
	}

	if *occupancy && res.Occupancy != nil {
		fmt.Fprintln(stdout)
		var occRows [][]string
		for s, p := range res.Occupancy {
			if p < 1e-12 && s > 0 {
				continue
			}
			occRows = append(occRows, []string{strconv.Itoa(s), report.FormatFloat(p)})
		}
		if err := report.Table(stdout, []string{"busy", "P"}, occRows); err != nil {
			return fail(err)
		}
	}

	if *weights != "" {
		ws, err := cli.ParseWeights(*weights)
		if err != nil {
			return fail(err)
		}
		if err := revenueReport(stdout, sw, ws, asym); err != nil {
			return fail(err)
		}
	}

	if err := stopProf(); err != nil {
		return fail(err)
	}
	return 0
}

// runScenario evaluates one declarative scenario spec and prints its
// measure table: simulation estimates carry their 95% confidence
// half-width, analytic measures show "-".
func runScenario(path string, stdout io.Writer) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	spec, err := scenario.Decode(r)
	if err != nil {
		return fmt.Errorf("scenario spec %s: %w", path, err)
	}
	res, err := scenario.Evaluate(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "scenario %s\n\n", res.Discipline)
	var rows [][]string
	for _, m := range res.Measures {
		hw := "-"
		if m.HalfWidth > 0 {
			hw = report.FormatFloat(m.HalfWidth)
		}
		rows = append(rows, []string{m.Name, report.FormatFloat(m.Value), hw})
	}
	return report.Table(stdout, []string{"measure", "value", "+-95%"}, rows)
}

// revenueReport prints the Section 4 revenue table, reading off the
// lattice-backed analysis on the exact tier and the O(R) saddle-point
// analysis when the blocking answer itself came from the asymptotic
// tier — the lattice a 4096-port shadow cost would need is exactly
// what dispatch avoided filling.
func revenueReport(stdout io.Writer, sw core.Switch, ws []float64, asym bool) error {
	headers := []string{"class", "w", "shadow cost", "profitable", "dW/drho (closed)", "dW/d(beta/mu)"}
	var rows [][]string
	var w float64
	if asym {
		an, err := revenue.NewAsymptotic(sw, ws)
		if err != nil {
			return err
		}
		w = an.W()
		for i, c := range sw.Classes {
			shadow, err := an.ShadowCost(i)
			if err != nil {
				return err
			}
			gradRho, err := an.GradientRhoClosed(i)
			if err != nil {
				return err
			}
			grad := "-"
			if revenue.HasBetaMuGradient(c, sw) {
				g, err := an.GradientBetaMu(i, 1e-4)
				if err != nil {
					return err
				}
				grad = report.FormatFloat(g)
			}
			rows = append(rows, []string{
				c.Name,
				report.FormatFloat(ws[i]),
				report.FormatFloat(shadow),
				fmt.Sprintf("%v", ws[i] > shadow),
				report.FormatFloat(gradRho),
				grad,
			})
		}
	} else {
		an, err := revenue.New(sw, ws)
		if err != nil {
			return err
		}
		w = an.W()
		for i, c := range sw.Classes {
			grad := "-"
			if revenue.HasBetaMuGradient(c, sw) {
				grad = report.FormatFloat(an.GradientBetaMu(i, 1e-4))
			}
			rows = append(rows, []string{
				c.Name,
				report.FormatFloat(ws[i]),
				report.FormatFloat(an.ShadowCost(i)),
				fmt.Sprintf("%v", an.Profitable(i)),
				report.FormatFloat(an.GradientRhoClosed(i)),
				grad,
			})
		}
	}
	fmt.Fprintf(stdout, "\nrevenue W(N) = %s\n", report.FormatFloat(w))
	return report.Table(stdout, headers, rows)
}
