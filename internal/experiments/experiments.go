// Package experiments implements every regenerable table, figure,
// validation, Ablation and extension study of the reproduction; the
// cmd/experiments binary is a thin dispatcher over Steps. Each step
// prints a text rendering to stdout and writes a CSV into the given
// output directory; quick mode shortens simulation horizons.
package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"xbar/internal/admission"
	"xbar/internal/asymptotic"
	"xbar/internal/clos"
	"xbar/internal/core"
	"xbar/internal/hotspot"
	"xbar/internal/inputq"
	"xbar/internal/ipp"
	"xbar/internal/link"
	"xbar/internal/minnet"
	"xbar/internal/network"
	"xbar/internal/overflow"
	"xbar/internal/parallel"
	"xbar/internal/report"
	"xbar/internal/retrial"
	"xbar/internal/sim"
	"xbar/internal/slotted"
	"xbar/internal/statespace"
	"xbar/internal/traffic"
	"xbar/internal/transient"
	"xbar/internal/wdm"
	"xbar/internal/workload"
)

// Step is one regenerable experiment: it prints a text rendering to
// stdout and writes a CSV into outDir.
type Step func(outDir string, quick bool) error

// Order lists the step names in presentation order.
func Order() []string {
	return []string{"Fig1", "Fig2", "Fig3", "Fig4", "Table1", "Table2", "SimCheck",
		"Ablation", "Baselines", "network", "admission", "ipp", "clos", "transient", "hotspot", "wdm", "retrial", "traffic", "overflow", "inputq", "figdense"}
}

// Steps maps experiment names to their implementations.
func Steps() map[string]Step {
	return map[string]Step{
		"Fig1":      Fig1,
		"Fig2":      Fig2,
		"Fig3":      Fig3,
		"Fig4":      Fig4,
		"Table1":    Table1,
		"Table2":    Table2,
		"SimCheck":  SimCheck,
		"Ablation":  Ablation,
		"Baselines": Baselines,
		"network":   NetworkExp,
		"admission": AdmissionExp,
		"ipp":       IPPExp,
		"clos":      ClosExp,
		"transient": TransientExp,
		"hotspot":   HotspotExp,
		"wdm":       WDMExp,
		"retrial":   RetrialExp,
		"traffic":   TrafficExp,
		"overflow":  OverflowExp,
		"inputq":    InputQExp,
		"figdense":  FigDense,
	}
}

func writeCSV(dir, name string, headers []string, rows [][]string) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return report.CSV(f, headers, rows)
}

func seriesCSV(dir, name string, series []workload.Series) error {
	headers := []string{"N"}
	for _, s := range series {
		headers = append(headers, s.Label)
	}
	var rows [][]string
	for i, p := range series[0].Points {
		row := []string{strconv.Itoa(p.N)}
		for _, s := range series {
			row = append(row, report.FormatFloat(s.Points[i].Value))
		}
		rows = append(rows, row)
	}
	return writeCSV(dir, name, headers, rows)
}

func figure(out string, name, title string, gen func([]int) ([]workload.Series, error), ns []int) error {
	series, err := gen(ns)
	if err != nil {
		return err
	}
	if err := report.Chart(os.Stdout, title, series, 14); err != nil {
		return err
	}
	return seriesCSV(out, name+".csv", series)
}

func Fig1(out string, _ bool) error {
	return figure(out, "figure1", "Figure 1: blocking vs N, smooth (Bernoulli) traffic, alpha~=.0024",
		workload.Figure1, workload.FigureNs())
}

func Fig2(out string, _ bool) error {
	return figure(out, "figure2", "Figure 2: blocking vs N, peaky (Pascal) traffic, alpha~=.0024",
		workload.Figure2, workload.FigureNs())
}

func Fig3(out string, _ bool) error {
	return figure(out, "figure3", "Figure 3: one bursty class vs Poisson+bursty mix",
		workload.Figure3, workload.FigureNs())
}

func Fig4(out string, _ bool) error {
	return figure(out, "figure4", "Figure 4: multi-rate a=1 vs a=2 at constant total load tau=.0048",
		workload.Figure4, workload.Figure4Ns())
}

func Table1(out string, _ bool) error {
	rows := workload.Table1(workload.Figure4Ns())
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			strconv.Itoa(r.N), report.FormatFloat(r.Rho1), report.FormatFloat(r.Rho2),
		})
	}
	headers := []string{"N1", "rho~1 (a=1)", "rho~2 (a=2)"}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	return writeCSV(out, "table1.csv", headers, cells)
}

// paperTable2 holds the values printed in the paper for side-by-side
// comparison: per set, per N, the blocking column and the revenue
// column.
var paperTable2 = map[int]map[int][2]float64{
	1: {1: {0.00239425, 0.00119725}, 2: {0.00358566, 0.00239163}, 4: {0.00418083, 0.00478041},
		8: {0.0044820, 0.00955794}, 16: {0.00464093, 0.0191128}, 32: {0.00473733, 0.0382221},
		64: {0.0048195, 0.0764381}, 128: {0.00492849, 0.152861}, 256: {0.00511868, 0.305671}},
	2: {1: {0.00239425, 0.00119725}, 2: {0.00358566, 0.00239163}, 4: {0.00418403, 0.0047804},
		8: {0.00449504, 0.00955782}, 16: {0.00467581, 0.0191122}, 32: {0.00481708, 0.0382193},
		64: {0.00498953, 0.0764266}, 128: {0.00527912, 0.152817}, 256: {0.00582948, 0.305646}},
	3: {1: {0.00477707, 0.00119463}, 2: {0.00714287, 0.00238357}, 4: {0.0083221, 0.00476149},
		8: {0.0089218, 0.00951723}, 16: {0.00924611, 0.0190283}, 32: {0.00945823, 0.0380486},
		64: {0.0096644, 0.0760824}, 128: {0.0099675, 0.152123}, 256: {0.010518, 0.304099}},
}

func Table2(out string, _ bool) error {
	headers := []string{"set", "N", "dW/drho1", "dW/d(b2/mu2)", "B (model)", "B (paper)", "B dev%", "W (model)", "W (paper)", "W dev%"}
	var cells [][]string
	for _, set := range workload.Table2Sets() {
		rows, err := workload.Table2(set, workload.Table2Ns())
		if err != nil {
			return err
		}
		for _, r := range rows {
			paper := paperTable2[set.Set][r.N]
			cells = append(cells, []string{
				strconv.Itoa(set.Set),
				strconv.Itoa(r.N),
				report.FormatFloat(r.GradRho1),
				report.FormatFloat(r.GradBeta2),
				report.FormatFloat(r.Blocking),
				report.FormatFloat(paper[0]),
				fmt.Sprintf("%+.2f", 100*(r.Blocking-paper[0])/paper[0]),
				report.FormatFloat(r.W),
				report.FormatFloat(paper[1]),
				fmt.Sprintf("%+.2f", 100*(r.W-paper[1])/paper[1]),
			})
		}
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	return writeCSV(out, "table2.csv", headers, cells)
}

func SimCheck(out string, quick bool) error {
	horizon := 400000.0
	if quick {
		horizon = 60000.0
	}
	type check struct {
		name string
		sw   core.Switch
	}
	checks := []check{
		{"Fig1 N=32 poisson", core.NewSwitch(32, 32,
			core.AggregateClass{Name: "p", A: 1, AlphaTilde: 0.0024, Mu: 1})},
		{"Fig1 N=32 smooth", core.NewSwitch(32, 32,
			core.AggregateClass{Name: "s", A: 1, AlphaTilde: 0.0024, BetaTilde: -4e-6, Mu: 1})},
		{"Fig2 N=32 peaky", core.NewSwitch(32, 32,
			core.AggregateClass{Name: "k", A: 1, AlphaTilde: 0.0024, BetaTilde: 0.0024, Mu: 1})},
		{"Fig4 N=8 a=2", core.NewSwitch(8, 8,
			core.AggregateClass{Name: "w", A: 2, AlphaTilde: 0.000171, Mu: 1})},
		{"Table2 N=16 mix", workload.Table2Switch(workload.Table2Sets()[0], 16)},
	}
	headers := []string{"experiment", "class", "B analytic", "B simulated (CI)", "E analytic", "E simulated (CI)", "call blocking"}
	// The replications are independent by construction (fixed per-check
	// seeds), so they run on the bounded pool; rows come back in check
	// order, keeping the report and CSV deterministic.
	rowGroups, err := parallel.Map(workload.Workers, checks, func(i int, c check) ([][]string, error) {
		want, err := core.Solve(c.sw)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(sim.Config{
			Switch: c.sw, Seed: uint64(1000 + i), Warmup: horizon / 10, Horizon: horizon,
		})
		if err != nil {
			return nil, err
		}
		var rows [][]string
		for r := range c.sw.Classes {
			cr := res.Classes[r]
			rows = append(rows, []string{
				c.name,
				c.sw.Classes[r].Name,
				report.FormatFloat(want.Blocking[r]),
				fmt.Sprintf("%.6f ± %.6f", 1-cr.TimeNonBlocking.Mean, cr.TimeNonBlocking.HalfWidth),
				report.FormatFloat(want.Concurrency[r]),
				fmt.Sprintf("%.5f ± %.5f", cr.Concurrency.Mean, cr.Concurrency.HalfWidth),
				fmt.Sprintf("%.6f", cr.CallBlocking.Mean),
			})
		}
		return rows, nil
	})
	if err != nil {
		return err
	}
	var cells [][]string
	for _, rows := range rowGroups {
		cells = append(cells, rows...)
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	return writeCSV(out, "simcheck.csv", headers, cells)
}

func Ablation(out string, _ bool) error {
	// Algorithm 1 (scaled) vs Algorithm 2 (MVA) vs unscaled float64 vs
	// the O(R) endpoint fixed point: agreement, runtime, and where the
	// unscaled recursion dies. (The approx column uses the all-Poisson
	// variant of the workload, since the fixed point does not model
	// state-dependent sources.)
	headers := []string{"N", "B alg1", "B alg2", "|alg1-alg2|", "unscaled",
		"B approx(P)", "B exact(P)", "t(alg1)", "t(alg2)", "t(approx)"}
	var cells [][]string
	for _, n := range []int{16, 32, 64, 85, 96, 128, 192, 256} {
		sw := core.NewSwitch(n, n,
			core.AggregateClass{Name: "p", A: 1, AlphaTilde: 0.0012, Mu: 1},
			core.AggregateClass{Name: "b", A: 1, AlphaTilde: 0.0012, BetaTilde: 0.0012, Mu: 1},
		)
		t0 := time.Now() //lint:allow detrand wall-clock timing for the runtime column of the report
		a1, err := core.Solve(sw)
		if err != nil {
			return err
		}
		d1 := time.Since(t0)
		t0 = time.Now() //lint:allow detrand wall-clock timing for the runtime column of the report
		a2, err := core.SolveMVA(sw)
		if err != nil {
			return err
		}
		d2 := time.Since(t0)
		unscaled := "ok"
		if _, err := core.SolveUnscaled(sw); err != nil {
			unscaled = "UNDERFLOW"
		}
		poisson := core.NewSwitch(n, n,
			core.AggregateClass{Name: "p", A: 1, AlphaTilde: 0.0024, Mu: 1})
		pc := poisson.Classes[0]
		t0 = time.Now() //lint:allow detrand wall-clock timing for the runtime column of the report
		ap, err := asymptotic.EndpointFixedPoint(n, n, []asymptotic.RateClass{{Name: pc.Name, A: pc.A, Alpha: pc.Alpha, Mu: pc.Mu}}, 1e-12, 10000)
		if err != nil {
			return err
		}
		d3 := time.Since(t0)
		pexact, err := core.Solve(poisson)
		if err != nil {
			return err
		}
		cells = append(cells, []string{
			strconv.Itoa(n),
			report.FormatFloat(a1.Blocking[0]),
			report.FormatFloat(a2.Blocking[0]),
			report.FormatFloat(math.Abs(a1.Blocking[0] - a2.Blocking[0])),
			unscaled,
			report.FormatFloat(ap.Blocking[0]),
			report.FormatFloat(pexact.Blocking[0]),
			d1.Round(10 * time.Microsecond).String(),
			d2.Round(10 * time.Microsecond).String(),
			d3.Round(time.Microsecond).String(),
		})
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	return writeCSV(out, "ablation.csv", headers, cells)
}

func Baselines(out string, quick bool) error {
	// Async crossbar vs single multirate link (2-D vs 1-D resource),
	// and slotted crossbar vs MIN (single-stage vs multistage) at
	// matched sizes.
	fmt.Println("-- circuit-switched: pooled 1-D link vs specific-route N x N crossbar, same total offered load --")
	fmt.Println("   (a specific-route request blocks at ~2 x port utilization; a pooled link at Erlang-B rates)")
	headers := []string{"N", "load (erl)", "util", "B link (pooled)", "B crossbar (route)", "ratio"}
	var cells [][]string
	for _, n := range []int{8, 16, 32} {
		erl := float64(n) * 0.3
		l := link.Link{C: n, Classes: []link.Class{{A: 1, Alpha: erl, Mu: 1}}}
		lres, err := link.Solve(l)
		if err != nil {
			return err
		}
		xres, err := core.Solve(l.CrossbarEquivalent())
		if err != nil {
			return err
		}
		cells = append(cells, []string{
			strconv.Itoa(n),
			report.FormatFloat(erl),
			fmt.Sprintf("%.3f", xres.Utilization()),
			report.FormatFloat(lres.Blocking[0]),
			report.FormatFloat(xres.Blocking[0]),
			fmt.Sprintf("%.3g", xres.Blocking[0]/lres.Blocking[0]),
		})
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	if err := writeCSV(out, "baseline_link.csv", headers, cells); err != nil {
		return err
	}

	fmt.Println("\n-- packet-mode: slotted crossbar vs omega MIN throughput at saturation --")
	slots := 40000
	if quick {
		slots = 5000
	}
	headers2 := []string{"N", "crossbar analytic", "MIN recursion", "MIN simulated", "crossbar advantage"}
	var cells2 [][]string
	for _, n := range []int{4, 16, 64} {
		xbarT, err := slotted.Throughput(n, n, 1)
		if err != nil {
			return err
		}
		minT, err := minnet.Recursion(n, 1)
		if err != nil {
			return err
		}
		minSim, err := minnet.Simulate(n, 1, slots, 77)
		if err != nil {
			return err
		}
		adv, err := minnet.CrossbarAdvantage(n, 1)
		if err != nil {
			return err
		}
		cells2 = append(cells2, []string{
			strconv.Itoa(n),
			fmt.Sprintf("%.4f", xbarT),
			fmt.Sprintf("%.4f", minT),
			fmt.Sprintf("%.4f ± %.4f", minSim.PerOutput.Mean, minSim.PerOutput.HalfWidth),
			fmt.Sprintf("%.2fx", adv),
		})
	}
	if err := report.Table(os.Stdout, headers2, cells2); err != nil {
		return err
	}
	return writeCSV(out, "baseline_min.csv", headers2, cells2)
}

func NetworkExp(out string, quick bool) error {
	horizon := 200000.0
	if quick {
		horizon = 30000.0
	}
	net := network.Network{
		Switches: []network.Dim{{N1: 8, N2: 8}, {N1: 8, N2: 8}, {N1: 8, N2: 8}},
		Routes: []network.Route{
			{Name: "3-hop", Path: []int{0, 1, 2}, Rate: 1.2, Mu: 1},
			{Name: "edge-left", Path: []int{0}, Rate: 1.6, Mu: 1},
			{Name: "edge-right", Path: []int{2}, Rate: 1.6, Mu: 1},
			{Name: "2-hop", Path: []int{1, 2}, Rate: 0.8, Mu: 1},
		},
	}
	fp, err := network.FixedPoint(net, 1e-10, 500)
	if err != nil {
		return err
	}
	res, err := network.Simulate(net, network.SimConfig{Seed: 13, Warmup: horizon / 10, Horizon: horizon})
	if err != nil {
		return err
	}
	headers := []string{"route", "hops", "B fixed-point", "B simulated (CI)"}
	var cells [][]string
	for i, r := range net.Routes {
		cells = append(cells, []string{
			r.Name,
			strconv.Itoa(len(r.Path)),
			report.FormatFloat(fp.RouteBlocking[i]),
			fmt.Sprintf("%.5f ± %.5f", res.RouteBlocking[i].Mean, res.RouteBlocking[i].HalfWidth),
		})
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	fmt.Printf("fixed point converged in %d iterations; simulated %d events\n", fp.Iterations, res.Events)
	return writeCSV(out, "network.csv", headers, cells)
}

// AdmissionExp sweeps the trunk-reservation limit of a low-value
// class and reports the revenue-optimal policy (exact CTMC solve).
func AdmissionExp(out string, _ bool) error {
	sw := core.Switch{N1: 4, N2: 4, Classes: []core.Class{
		{Name: "gold", A: 1, Alpha: 0.05, Mu: 1},
		{Name: "lead", A: 1, Alpha: 0.08, Mu: 1},
	}}
	weights := []float64{1.0, 0.01}
	best, sweep, err := admission.OptimizeReservation(sw, weights, 1, 100000)
	if err != nil {
		return err
	}
	headers := []string{"lead limit", "W", "B gold", "B lead", "E gold", "E lead"}
	var cells [][]string
	for t, ev := range sweep {
		mark := ""
		if ev.Limits[1] == best.Limits[1] {
			mark = "  <- optimal"
		}
		cells = append(cells, []string{
			strconv.Itoa(t),
			report.FormatFloat(ev.Revenue) + mark,
			report.FormatFloat(ev.CallBlocking[0]),
			report.FormatFloat(ev.CallBlocking[1]),
			report.FormatFloat(ev.Concurrency[0]),
			report.FormatFloat(ev.Concurrency[1]),
		})
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	fmt.Printf("optimal lead reservation limit: %d of %d (revenue %+.2f%% over no control)\n",
		best.Limits[1], sw.MinN(),
		100*(best.Revenue-sweep[len(sweep)-1].Revenue)/sweep[len(sweep)-1].Revenue)
	fmt.Println("(with equal-size classes the exact sweep is bang-bang: carry the class")
	fmt.Println(" fully or shed it, depending on whether w_r clears the shadow cost)")
	return writeCSV(out, "admission.csv", headers, cells)
}

// IPPExp compares a genuine on/off bursty source against its
// moment-matched BPP approximation — the use case the BPP family
// exists for.
func IPPExp(out string, quick bool) error {
	horizon := 300000.0
	if quick {
		horizon = 50000.0
	}
	headers := []string{"Z", "B sim (IPP, CI)", "B analytic (BPP fit)", "rel err %", "call blocking (IPP)"}
	var cells [][]string
	const n, m = 6, 1.5
	for i, z := range []float64{1.2, 1.6, 2.0, 2.4} {
		src, err := ipp.Design(m, z, 1)
		if err != nil {
			return err
		}
		approx, err := ipp.BPPApprox(n, n, src, 1)
		if err != nil {
			return err
		}
		res, err := ipp.SimulateCrossbar(n, n, src, 1, ipp.SimConfig{
			Seed: uint64(50 + i), Warmup: horizon / 20, Horizon: horizon,
		})
		if err != nil {
			return err
		}
		simB := 1 - res.TimeNonBlocking.Mean
		cells = append(cells, []string{
			fmt.Sprintf("%.1f", z),
			fmt.Sprintf("%.5f ± %.5f", simB, res.TimeNonBlocking.HalfWidth),
			report.FormatFloat(approx.Blocking[0]),
			fmt.Sprintf("%+.2f", 100*(approx.Blocking[0]-simB)/simB),
			fmt.Sprintf("%.5f", res.CallBlocking.Mean),
		})
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	return writeCSV(out, "ipp.csv", headers, cells)
}

// ClosExp compares Clos configurations against the full crossbar:
// crosspoint savings vs internal blocking, and the Clos theorem.
func ClosExp(out string, quick bool) error {
	horizon := 40000.0
	if quick {
		horizon = 8000.0
	}
	headers := []string{"C(m,n,r)", "ports", "xpoints", "vs crossbar", "strict NB", "Lee B", "sim internal B"}
	var cells [][]string
	for _, c := range []clos.Network{
		{M: 4, N: 8, R: 8},
		{M: 8, N: 8, R: 8},
		{M: 12, N: 8, R: 8},
		{M: 15, N: 8, R: 8}, // m = 2n-1
	} {
		const load = 0.6
		lee, err := c.LeeBlocking(load)
		if err != nil {
			return err
		}
		res, err := clos.Simulate(c, clos.SimConfig{
			PerInputLoad: load, Mu: 1, Policy: clos.RandomAvailable,
			Seed: 21, Warmup: horizon / 10, Horizon: horizon,
		})
		if err != nil {
			return err
		}
		cells = append(cells, []string{
			fmt.Sprintf("C(%d,%d,%d)", c.M, c.N, c.R),
			strconv.Itoa(c.Ports()),
			strconv.Itoa(c.Crosspoints()),
			fmt.Sprintf("%.2fx", float64(c.Crosspoints())/float64(c.CrossbarCrosspoints())),
			fmt.Sprintf("%v", c.StrictSenseNonblocking()),
			report.FormatFloat(lee),
			fmt.Sprintf("%.6f ± %.6f", res.InternalBlocking.Mean, res.InternalBlocking.HalfWidth),
		})
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	fmt.Println("(m = 2n-1 row: zero internal blocking is the Clos theorem, observed on the event stream)")
	return writeCSV(out, "clos.csv", headers, cells)
}

// TransientExp shows the cold-start blocking trajectory toward the
// paper's stationary operating point.
func TransientExp(out string, _ bool) error {
	sw := workload.Table2Switch(workload.Table2Sets()[0], 8)
	chain, err := statespace.NewChain(sw, 100000)
	if err != nil {
		return err
	}
	pi0, err := transient.EmptyStart(chain)
	if err != nil {
		return err
	}
	times := []float64{0, 0.25, 0.5, 1, 2, 4, 8}
	traj, err := transient.BlockingTrajectory(chain, pi0, 0, times, transient.Options{})
	if err != nil {
		return err
	}
	stat, err := chain.Stationary()
	if err != nil {
		return err
	}
	target := chain.Measures(stat).Blocking[0]
	headers := []string{"t (holding times)", "blocking B(t)", "fraction of stationary"}
	var cells [][]string
	for i, tt := range times {
		cells = append(cells, []string{
			fmt.Sprintf("%.2f", tt),
			report.FormatFloat(traj[i]),
			fmt.Sprintf("%.4f", traj[i]/target),
		})
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	relax, err := transient.RelaxationTime(chain, 0.01, 50, transient.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("stationary blocking %.6g; within 1%% after %.2f holding times\n", target, relax)
	return writeCSV(out, "transient.csv", headers, cells)
}

// HotspotExp sweeps the hot-spot fraction and reports the split
// between hot and cold blocking (exact reduced chain + simulation).
func HotspotExp(out string, quick bool) error {
	horizon := 80000.0
	if quick {
		horizon = 15000.0
	}
	headers := []string{"hot fraction p", "B hot (exact)", "B cold (exact)", "hot util", "B hot (sim)", "B cold (sim)"}
	var cells [][]string
	for i, p := range []float64{1.0 / 8, 0.2, 0.4, 0.6} {
		m := hotspot.Model{N1: 8, N2: 8, Lambda: 4, Mu: 1, HotFraction: p}
		exact, err := hotspot.Solve(m)
		if err != nil {
			return err
		}
		res, err := hotspot.Simulate(m, hotspot.SimConfig{
			Seed: uint64(30 + i), Warmup: horizon / 10, Horizon: horizon,
		})
		if err != nil {
			return err
		}
		cells = append(cells, []string{
			fmt.Sprintf("%.3f", p),
			report.FormatFloat(1 - exact.HotNonBlocking),
			report.FormatFloat(1 - exact.ColdNonBlocking),
			fmt.Sprintf("%.4f", exact.HotUtilization),
			fmt.Sprintf("%.5f ± %.5f", res.HotBlocking.Mean, res.HotBlocking.HalfWidth),
			fmt.Sprintf("%.5f ± %.5f", res.ColdBlocking.Mean, res.ColdBlocking.HalfWidth),
		})
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	fmt.Println("(p = 1/N2 row is uniform traffic: hot and cold coincide with the paper's model)")
	return writeCSV(out, "hotspot.csv", headers, cells)
}

// WDMExp measures the wavelength-conversion gain on a multi-hop
// all-optical path: continuity-constrained vs converter-equipped,
// analytic approximations vs simulation.
func WDMExp(out string, quick bool) error {
	horizon := 120000.0
	if quick {
		horizon = 20000.0
	}
	headers := []string{"hops", "B continuity (sim)", "B continuity (Barry-Humblet)",
		"B conversion (sim)", "B conversion (Erlang-B^L)", "gain (sim)"}
	var cells [][]string
	for i, l := range []int{2, 4, 6} {
		p := wdm.Path{L: l, W: 8, Rate: 2, CrossRate: 2.5, Mu: 1}
		bh, err := p.ContinuityBlocking()
		if err != nil {
			return err
		}
		eb, err := p.ConversionBlocking()
		if err != nil {
			return err
		}
		nc, err := wdm.Simulate(p, wdm.SimConfig{
			Assignment: wdm.RandomFit, Seed: uint64(60 + i), Warmup: horizon / 10, Horizon: horizon,
		})
		if err != nil {
			return err
		}
		cv, err := wdm.Simulate(p, wdm.SimConfig{
			Converters: true, Seed: uint64(70 + i), Warmup: horizon / 10, Horizon: horizon,
		})
		if err != nil {
			return err
		}
		gain := nc.EndToEndBlocking.Mean / cv.EndToEndBlocking.Mean
		cells = append(cells, []string{
			strconv.Itoa(l),
			fmt.Sprintf("%.5f ± %.5f", nc.EndToEndBlocking.Mean, nc.EndToEndBlocking.HalfWidth),
			report.FormatFloat(bh),
			fmt.Sprintf("%.5f ± %.5f", cv.EndToEndBlocking.Mean, cv.EndToEndBlocking.HalfWidth),
			report.FormatFloat(eb),
			fmt.Sprintf("%.2fx", gain),
		})
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	return writeCSV(out, "wdm.csv", headers, cells)
}

// RetrialExp quantifies what the paper's blocked-calls-cleared
// assumption hides: retries cut abandonment but inflate congestion.
func RetrialExp(out string, quick bool) error {
	horizon := 120000.0
	if quick {
		horizon = 20000.0
	}
	headers := []string{"max attempts", "abandonment", "1st-attempt blocking", "mean attempts", "mean orbit"}
	var cells [][]string
	for i, attempts := range []int{1, 2, 4, 8} {
		cfg := retrial.Config{
			N1: 6, N2: 6, Lambda: 4, Mu: 1,
			MaxAttempts: attempts, RetryRate: 2,
			Seed: uint64(80 + i), Warmup: horizon / 10, Horizon: horizon,
		}
		res, err := retrial.Run(cfg)
		if err != nil {
			return err
		}
		cells = append(cells, []string{
			strconv.Itoa(attempts),
			fmt.Sprintf("%.5f ± %.5f", res.Abandonment.Mean, res.Abandonment.HalfWidth),
			fmt.Sprintf("%.5f ± %.5f", res.FirstAttemptBlocking.Mean, res.FirstAttemptBlocking.HalfWidth),
			fmt.Sprintf("%.3f", res.MeanAttempts),
			fmt.Sprintf("%.3f", res.MeanOrbit),
		})
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	cleared, err := retrial.ClearedBlocking(6, 6, 4, 1)
	if err != nil {
		return err
	}
	fmt.Printf("cleared-model blocking at the same fresh load: %.5f\n", cleared)
	return writeCSV(out, "retrial.csv", headers, cells)
}

// TrafficExp shows the load-balancing dividend: a skewed traffic
// matrix before and after Sinkhorn balancing at the same total load.
func TrafficExp(out string, quick bool) error {
	horizon := 120000.0
	if quick {
		horizon = 20000.0
	}
	const n, lambda = 8, 7.0
	skewed := traffic.NewUniform(n, n)
	for j := 0; j < n; j++ {
		skewed[0][j] += 4 // hot input row
	}
	for i := 0; i < n; i++ {
		skewed[i][1] += 4 // hot output column
	}
	balanced, err := skewed.Sinkhorn(1e-10, 100000)
	if err != nil {
		return err
	}
	headers := []string{"matrix", "imbalance", "blocking (sim)", "carried E"}
	var cells [][]string
	for i, c := range []struct {
		name string
		m    traffic.Matrix
	}{{"skewed", skewed}, {"sinkhorn-balanced", balanced}, {"uniform", traffic.NewUniform(n, n)}} {
		res, err := traffic.Simulate(c.m, traffic.SimConfig{
			Lambda: lambda, Mu: 1, Seed: uint64(90 + i), Warmup: horizon / 10, Horizon: horizon,
		})
		if err != nil {
			return err
		}
		cells = append(cells, []string{
			c.name,
			fmt.Sprintf("%.3f", c.m.Imbalance()),
			fmt.Sprintf("%.5f ± %.5f", res.Blocking.Mean, res.Blocking.HalfWidth),
			fmt.Sprintf("%.3f", res.Concurrency.Mean),
		})
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	return writeCSV(out, "traffic.csv", headers, cells)
}

// OverflowExp closes the loop on the paper's Pascal-traffic premise:
// a crossbar's own blocked traffic, overflowed to a second switch, is
// peaky — and the BPP machinery predicts the secondary's loss where a
// mean-only Poisson fit cannot.
func OverflowExp(out string, quick bool) error {
	horizon := 400000.0
	if quick {
		horizon = 60000.0
	}
	headers := []string{"primary", "secondary", "overflow m", "overflow Z",
		"B secondary (sim)", "BPP fit", "Poisson fit"}
	var cells [][]string
	for i, c := range []struct {
		pn, sn int
		lam    float64
	}{{3, 6, 1.5}, {4, 6, 2.0}, {4, 8, 2.5}} {
		res, err := overflow.Run(overflow.Config{
			PrimaryN: c.pn, SecondaryN: c.sn, Lambda: c.lam, Mu: 1,
			Seed: uint64(100 + i), Warmup: horizon / 20, Horizon: horizon,
		})
		if err != nil {
			return err
		}
		bpp, err := overflow.SecondaryBPPCallCongestion(c.sn, res.OverflowMean, res.OverflowPeakedness, 1)
		if err != nil {
			return err
		}
		poi, err := overflow.SecondaryPoissonApprox(c.sn, res.OverflowMean, 1)
		if err != nil {
			return err
		}
		cells = append(cells, []string{
			fmt.Sprintf("%dx%d @%.1f", c.pn, c.pn, c.lam),
			fmt.Sprintf("%dx%d", c.sn, c.sn),
			fmt.Sprintf("%.3f", res.OverflowMean),
			fmt.Sprintf("%.3f", res.OverflowPeakedness),
			fmt.Sprintf("%.4f ± %.4f", res.SecondaryBlocking.Mean, res.SecondaryBlocking.HalfWidth),
			report.FormatFloat(bpp),
			report.FormatFloat(poi),
		})
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	fmt.Println("(overflowed crossbar traffic is peaky (Z > 1); the BPP fit tracks the")
	fmt.Println(" measured loss while the Poisson fit underestimates it — the paper's premise)")
	return writeCSV(out, "overflow.csv", headers, cells)
}

// InputQExp contrasts the unbuffered loss switch with the buffered
// alternatives: FIFO input queueing hits the Karol-Hluchyj-Morgan HOL
// limit (2 - sqrt(2)) while output queueing is work-conserving.
func InputQExp(out string, quick bool) error {
	slots := 60000
	if quick {
		slots = 10000
	}
	headers := []string{"N", "IQ saturation (sim)", "KHM reference", "OQ saturation (sim)"}
	khm := map[int]float64{1: 1.0, 2: 0.75, 4: 0.6553, 8: 0.6184, 32: 0.5900, 64: 0.5879}
	var cells [][]string
	for _, n := range []int{2, 4, 8, 32} {
		iq, err := inputq.SaturationThroughput(n, slots, inputq.InputQueued, uint64(n))
		if err != nil {
			return err
		}
		oq, err := inputq.SaturationThroughput(n, slots, inputq.OutputQueued, uint64(n+100))
		if err != nil {
			return err
		}
		ref := "-"
		if v, ok := khm[n]; ok {
			ref = fmt.Sprintf("%.4f", v)
		}
		cells = append(cells, []string{
			strconv.Itoa(n),
			fmt.Sprintf("%.4f ± %.4f", iq.Mean, iq.HalfWidth),
			ref,
			fmt.Sprintf("%.4f ± %.4f", oq.Mean, oq.HalfWidth),
		})
	}
	if err := report.Table(os.Stdout, headers, cells); err != nil {
		return err
	}
	fmt.Printf("HOL asymptote 2 - sqrt(2) = %.4f; the unbuffered optical switch avoids\n", inputq.SaturationHOL())
	fmt.Println("queueing delay entirely and trades it for loss — the paper's design point.")
	return writeCSV(out, "inputq.csv", headers, cells)
}

// FigDense regenerates Figures 1-3 on the dense N = 1..128 axis the
// paper plots, writing CSVs only (the ASCII charts use the sparse
// sweep).
func FigDense(out string, _ bool) error {
	ns := workload.DenseFigureNs()
	for _, f := range []struct {
		name string
		gen  func([]int) ([]workload.Series, error)
	}{
		{"figure1_dense", workload.Figure1},
		{"figure2_dense", workload.Figure2},
		{"figure3_dense", workload.Figure3},
	} {
		series, err := f.gen(ns)
		if err != nil {
			return err
		}
		if err := seriesCSV(out, f.name+".csv", series); err != nil {
			return err
		}
		fmt.Printf("%s.csv: %d sizes x %d series\n", f.name, len(ns), len(series))
	}
	return nil
}
