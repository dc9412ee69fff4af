package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkSpec
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runCLI runs xbarload in-process and returns the exit code, stdout and
// the -o document.
func runCLI(t *testing.T, args ...string) (int, string, report) {
	t.Helper()
	resultPath := filepath.Join(t.TempDir(), "result.json")
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-o", resultPath), &stdout, &stderr)
	if code != 0 && !strings.Contains(stderr.String(), "invalid") {
		t.Fatalf("xbarload %v exited %d:\n%s", args, code, stderr.String())
	}
	var doc report
	data, err := os.ReadFile(resultPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return code, stdout.String(), doc
}

// checkRuns asserts that every run of doc succeeded and reported every
// named metric with its unit.
func checkRuns(t *testing.T, doc report, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, wr := range doc.Workloads {
		if len(wr.Runs) == 0 {
			t.Fatalf("%s: no runs", wr.Name)
		}
		for _, r := range wr.Runs {
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s: %d of %d requests failed: %v", wr.Name, r.Failed, r.Attempted, r.Errors)
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", wr.Name, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestMetricListsMatchBenchmark pins the lists the final line prints
// to BENCHMARK.json.
func TestMetricListsMatchBenchmark(t *testing.T) {
	b := readBenchmark(t)
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, xbarload reports %v", got, endToEnd)
	}
	if got := names(b.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, xbarload reports %v", got, perLayer)
	}
}

// TestTracedWorkloads runs every workload for about a second against
// in-process servers (one node, and three for cluster-3node), and checks
// the answers, the per-layer metrics, the final line and the span tree.
func TestTracedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmark(t)
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	code, stdout, doc := runCLI(t, "-trace", "1", "-seconds", "1", "-seed", "3", "-spans", spans)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	checkRuns(t, doc, b.PerLayer)

	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var final finalLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !final.Correct || final.Failed != 0 || final.Attempted == 0 || len(final.Metrics) != len(workloadNames)*len(perLayer) {
		t.Errorf("final line: correct %v, %d of %d failed, %d metrics", final.Correct, final.Failed, final.Attempted, len(final.Metrics))
	}

	for _, name := range workloadNames {
		checkSpanTree(t, filepath.Join(filepath.Dir(spans), "spans-"+name+".jsonl"))
	}
}

// checkSpanTree asserts that every parent of a span exists and that
// every self time is non-negative.
func checkSpanTree(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	replayed := 0
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("%s: span %+v has no parent", path, s)
		}
		if s.End < s.Start {
			t.Fatalf("%s: span %+v ends before it starts", path, s)
		}
		if s.Name != "client.request" && s.Name != "server.handle" {
			replayed++
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Fatalf("%s: span %d has self time %d", path, id, self)
		}
	}
	if replayed == 0 {
		t.Errorf("%s: no replayed spans", path)
	}
}

// TestDaemonWorkloads runs the untraced path against xbard daemons, one
// node and the 3-node fleet, and checks the end-to-end metrics.
func TestDaemonWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches xbard")
	}
	b := readBenchmark(t)
	bin := filepath.Join(t.TempDir(), "xbard")
	if out, err := exec.Command("go", "build", "-o", bin, "xbar/cmd/xbard").CombinedOutput(); err != nil {
		t.Fatalf("building xbard: %v\n%s", err, out)
	}
	for _, name := range []string{"hot-hit", "cluster-3node"} {
		_, _, doc := runCLI(t, "-workload", name, "-seconds", "1", "-xbard", bin)
		checkRuns(t, doc, b.EndToEnd)
	}
}

// TestGaugeFactor checks that a host gauge reading is finite and
// positive.
func TestGaugeFactor(t *testing.T) {
	g, err := newGauge()
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	f, err := g.read()
	if err != nil {
		t.Fatal(err)
	}
	if !(f > 0) || math.IsInf(f, 0) {
		t.Errorf("host factor = %v", f)
	}
	t.Logf("host factor %.3f: a round trip took %.1f us", f, f*gaugeNominalUs)
}

// TestFactorKeepsHandlerCost runs hot-hit's closed phase against two
// in-process servers, taking turns so that both see the same host: one
// as is, one with a handler that allocates and writes 1 MiB before each
// request. The throughput at nominal host speed must drop with the
// injected cost, by about as much as the throughput as measured: the
// gauge reads the host factor while no load runs, so the load's own
// work and memory pressure cannot move it.
func TestFactorKeepsHandlerCost(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six closed phases")
	}
	w, err := newWorkload("hot-hit", 1)
	if err == nil {
		err = solveAll(w.reqs)
	}
	if err != nil {
		t.Fatal(err)
	}
	gg, err := newGauge()
	if err != nil {
		t.Fatal(err)
	}
	defer gg.close()
	var sink atomic.Int64
	costly := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			buf := make([]byte, 1<<20)
			for i := 0; i < len(buf); i += 64 {
				buf[i] = byte(i)
			}
			sink.Add(int64(buf[len(buf)-64]))
			h.ServeHTTP(rw, r)
		})
	}
	ctx := context.Background()
	var loaders []*loader
	for _, wrap := range []func(http.Handler) http.Handler{func(h http.Handler) http.Handler { return h }, costly} {
		f, err := startInproc(1, wrap)
		if err != nil {
			t.Fatal(err)
		}
		l := &loader{w: w, client: &http.Client{}, nodes: f.nodes()}
		defer func() {
			l.client.CloseIdleConnections()
			if err := f.stop(); err != nil {
				t.Error(err)
			}
		}()
		l.sendAll(ctx, w.prefill)
		loaders = append(loaders, l)
	}
	noCPU := func() (float64, error) { return 0, nil }
	wins := make([][]window, len(loaders))
	for round := 0; round < 3; round++ {
		for i, l := range loaders {
			ws, err := l.measureClosed(ctx, gg, w.streams(phaseClosed), 240*time.Millisecond, []int{0}, noCPU)
			if err != nil {
				t.Fatal(err)
			}
			wins[i] = append(wins[i], ws...)
		}
	}
	var m [2]metrics
	for i, l := range loaders {
		if len(l.errs) != 0 {
			t.Fatalf("requests failed: %v", l.errs)
		}
		m[i] = metrics{}
		setClosed(m[i], wins[i])
	}
	scaled := m[1]["throughput_rps"].Value / m[0]["throughput_rps"].Value
	measured := m[1]["measured.throughput_rps"].Value / m[0]["measured.throughput_rps"].Value
	t.Logf("throughput with the injected cost over without: %.3f at nominal speed, %.3f as measured", scaled, measured)
	if !(scaled < 0.6) {
		t.Errorf("the injected cost moved the throughput at nominal speed to %.3f of the base, want below 0.6", scaled)
	}
	if scaled > 1.3*measured || scaled < measured/1.3 {
		t.Errorf("the host factor moved with the load: throughput ratio %.3f at nominal speed against %.3f as measured", scaled, measured)
	}
}

// TestSameSeedSameRequests checks that a seed fixes every request
// sequence byte for byte, and that another seed changes it.
func TestSameSeedSameRequests(t *testing.T) {
	sequence := func(name string, seed uint64) []byte {
		w, err := newWorkload(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		var seq []byte
		for phase := phaseWarmup; phase <= phaseKill; phase++ {
			for _, st := range w.streams(phase) {
				for i := 0; i < 200; i++ {
					seq = append(seq, w.reqs[w.pick(st)].body...)
				}
			}
			for _, a := range w.schedule(phase, 200*time.Millisecond) {
				seq = fmt.Appendf(seq, "%d:%s", a.at, w.reqs[a.req].body)
			}
		}
		return seq
	}
	for _, name := range workloadNames {
		a, b := sequence(name, 7), sequence(name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request sequences", name)
		}
		if bytes.Equal(a, sequence(name, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

// TestOracleCatchesWrongAnswer sends one request of every endpoint to
// an in-process xbard, then corrupts its reference answer by one ulp
// and asserts that the same response now fails the check.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	var reqs []request
	for _, name := range []string{"hot-hit", "mixed-tiers", "miss-fill"} {
		w, err := newWorkload(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, rq := range w.reqs {
			kind := fmt.Sprint(reflect.TypeOf(rq.in), rq.alg, strings.Contains(string(rq.body), `"dispatch"`))
			if !seen[kind] {
				seen[kind] = true
				reqs = append(reqs, rq)
			}
		}
	}
	if err := solveAll(reqs); err != nil {
		t.Fatal(err)
	}
	f, err := startInproc(1, func(h http.Handler) http.Handler { return h })
	if err != nil {
		t.Fatal(err)
	}
	l := &loader{w: &workload{reqs: reqs}, client: &http.Client{}, nodes: f.nodes()}
	defer func() {
		l.client.CloseIdleConnections()
		if err := f.stop(); err != nil {
			t.Error(err)
		}
	}()
	for i := range reqs {
		ep := reqs[i].ep.path()
		if s := l.send(context.Background(), 0, i); !s.ok() {
			t.Fatalf("%s: correct answer rejected: %v", ep, l.errs)
		}
		if !nudgeFirstFloat(reflect.ValueOf(reqs[i].want)) {
			t.Fatalf("%s: no float64 in the reference answer", ep)
		}
		if s := l.send(context.Background(), 0, i); s.ok() {
			t.Errorf("%s: corrupted reference answer still accepted", ep)
		}
	}
}

// nudgeFirstFloat moves the first float64 reachable from v by one ulp.
func nudgeFirstFloat(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		return !v.IsNil() && nudgeFirstFloat(v.Elem())
	case reflect.Float64:
		if v.CanSet() {
			v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
			return true
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if nudgeFirstFloat(v.Field(i)) {
				return true
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if nudgeFirstFloat(v.Index(i)) {
				return true
			}
		}
	}
	return false
}
