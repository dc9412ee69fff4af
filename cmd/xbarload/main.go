// Command xbarload is the end-to-end load benchmark of xbard.
//
// An untraced run (-trace 0) launches real xbard daemons as child
// processes (one node, or a 3-node -peers fleet), drives them with at
// most two requests in flight, checks every response against answers
// computed beforehand from the solver packages, and reports the
// end-to-end metrics, its timings scaled to nominal host speed by the
// host gauge (gauge.go). A traced run (-trace 1) serves the same workload
// from in-process servers, records spans around each request, replays
// a sample through the handlers' public functions, and reports the
// per-layer metrics. Every input derives from -seed.
//
// Usage:
//
//	xbarload -xbard path/to/xbard [-workload all|hot-hit|miss-fill|mixed-tiers|cluster-3node]
//	         [-seed n] [-seconds s] [-trace 0|1] [-spans spans.jsonl] [-runs n] [-o result.json]
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics BENCHMARK.json names (medians over
// -runs). See README.md for the workloads, the metrics and the A/B
// procedure.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xbarload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadFlag = fs.String("workload", "all", "workload to run ("+strings.Join(workloadNames, ", ")+") or all")
		seed         = fs.Uint64("seed", 1, "seed every generated input derives from")
		seconds      = fs.Float64("seconds", 30, "measured seconds of one workload run, split across its phases")
		traceFlag    = fs.Int("trace", 0, "0: xbard daemons, end-to-end metrics; 1: traced in-process servers, per-layer metrics")
		spans        = fs.String("spans", "spans.jsonl", "file a traced run writes its spans to; the workload name is inserted before the extension")
		runs         = fs.Int("runs", 1, "setup-and-phases cycles per workload; medians and quartiles are reported")
		out          = fs.String("o", "", "write the full result document to this file")
		xbard        = fs.String("xbard", "", "xbard binary the untraced runs launch")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *workloadFlag != "all" {
		names = []string{*workloadFlag}
	}
	switch {
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "xbarload: unexpected arguments %v\n", fs.Args())
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintln(stderr, "xbarload: -trace must be 0 or 1")
		return 2
	case *seconds <= 0 || *runs < 1:
		fmt.Fprintln(stderr, "xbarload: -seconds must be positive and -runs at least 1")
		return 2
	case *traceFlag == 0 && *xbard == "":
		fmt.Fprintln(stderr, "xbarload: untraced runs need -xbard")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	doc := report{Host: fingerprint(*seed), Seconds: *seconds, Trace: *traceFlag == 1}
	fmt.Fprintf(stdout, "# host: %+v\n", doc.Host)
	final := finalLine{Correct: true, Metrics: metrics{}}
	listed := endToEnd
	if doc.Trace {
		listed = perLayer
	}
	invalid := false
	for _, name := range names {
		w, err := newWorkload(name, *seed)
		if err == nil {
			err = solveAll(w.reqs)
		}
		if err != nil {
			fmt.Fprintln(stderr, "xbarload:", err)
			return 1
		}
		o := options{seconds: *seconds, trace: doc.Trace, xbard: *xbard}
		if doc.Trace {
			ext := filepath.Ext(*spans)
			o.spans = strings.TrimSuffix(*spans, ext) + "-" + name + ext
		}
		wr := workloadReport{Name: name}
		for r := 0; r < *runs; r++ {
			res, err := runWorkload(ctx, w, o)
			if res != nil {
				printRun(stdout, res)
				for _, e := range res.Errors {
					fmt.Fprintf(stderr, "xbarload: %s: %s\n", name, e)
				}
				wr.Runs = append(wr.Runs, res)
				final.Attempted += res.Attempted
				final.Failed += res.Failed
			}
			if err != nil {
				fmt.Fprintf(stderr, "xbarload: %s: %v\n", name, err)
				if !errors.Is(err, errInvalid) {
					return 1
				}
				invalid = true
			}
		}
		wr.Summary = summarize(wr.Runs)
		if *runs > 1 {
			printSummary(stdout, name, wr.Summary)
		}
		doc.Workloads = append(doc.Workloads, wr)
		for _, mn := range listed {
			s, ok := wr.Summary[mn]
			if !ok {
				fmt.Fprintf(stderr, "xbarload: %s: metric %s was not measured\n", name, mn)
				return 1
			}
			key := mn
			if len(names) > 1 {
				key = name + "." + mn
			}
			final.Metrics.set(key, s.Median, s.Unit)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintln(stderr, "xbarload:", err)
			return 1
		}
	}
	if invalid {
		fmt.Fprintln(stderr, "xbarload: the run is invalid; its numbers must not be used")
		return 1
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "xbarload:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is the -o document.
type report struct {
	Host      host             `json:"host"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name    string            `json:"name"`
	Runs    []*result         `json:"runs"`
	Summary map[string]spread `json:"summary"`
}

// spread is one metric over the runs of a workload.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

func summarize(runs []*result) map[string]spread {
	vals := make(map[string][]float64)
	units := make(map[string]string)
	for _, r := range runs {
		for name, m := range r.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
	}
	out := make(map[string]spread, len(vals))
	for name, xs := range vals {
		out[name] = spread{Median: quantile(xs, 0.5), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), Unit: units[name]}
	}
	return out
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printRun(w io.Writer, r *result) {
	for _, n := range sortedNames(r.Metrics) {
		fmt.Fprintf(w, "%-14s %-34s %16.4f %s\n", r.Workload, n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "%-14s %-34s %16d of %d\n", r.Workload, "failed", r.Failed, r.Attempted)
}

func printSummary(w io.Writer, workload string, s map[string]spread) {
	fmt.Fprintf(w, "# %s: median [q1, q3]\n", workload)
	for _, n := range sortedNames(s) {
		fmt.Fprintf(w, "%-14s %-34s %16.4f [%.4f, %.4f] %s\n", workload, n, s[n].Median, s[n].Q1, s[n].Q3, s[n].Unit)
	}
}

// host fingerprints the machine a result was measured on.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	Rev        string `json:"git_rev"`
	Seed       uint64 `json:"seed"`
}

func fingerprint(seed uint64) host {
	h := host{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Go: runtime.Version(), CPU: "unknown", Rev: "unknown", Seed: seed}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Only a repository rooted at the working directory counts: git must
	// not search the parent directories.
	if _, err := os.Stat(".git"); err == nil {
		if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Rev = strings.TrimSpace(string(rev))
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
