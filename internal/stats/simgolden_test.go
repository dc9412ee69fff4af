package stats_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xbar/internal/clos"
	"xbar/internal/core"
	"xbar/internal/hotspot"
	"xbar/internal/ipp"
	"xbar/internal/network"
	"xbar/internal/overflow"
	"xbar/internal/retrial"
	"xbar/internal/sim"
	"xbar/internal/traffic"
	"xbar/internal/wdm"
)

var updateSimGolden = flag.Bool("update-sim-golden", false, "rewrite testdata/simulators.golden from the current simulators")

// simCase is one simulator run whose Result the golden file pins.
type simCase struct {
	name string
	run  func() (any, error)
}

// simGoldenCases runs each event-driven simulator on the scenario
// corpus windows (20/200, 30/300) and on its own tests' configs, with
// default and explicit batch counts.
func simGoldenCases() []simCase {
	farm := core.Switch{N1: 8, N2: 8, Classes: []core.Class{
		{Name: "p1", A: 1, Alpha: 0.08, Mu: 1},
		{Name: "b1", A: 1, Alpha: 0.01, Beta: 0.01, Mu: 1},
		{Name: "w2", A: 2, Alpha: 0.001, Mu: 1},
	}}
	bench := core.Switch{N1: 16, N2: 16, Classes: []core.Class{
		{Name: "p1", A: 1, Alpha: 0.0234, Mu: 1},
		{Name: "b1", A: 1, Alpha: 0.002, Beta: 0.002, Mu: 1},
		{Name: "w2", A: 2, Alpha: 2.6e-5, Mu: 1},
	}}
	// Above the flat schedule's limit: the heap-driven generic loop.
	wide := core.Switch{N1: 72, N2: 80, Classes: []core.Class{
		{Name: "p", A: 1, Alpha: 0.004, Mu: 1},
		{Name: "b", A: 3, Alpha: 1e-11, Beta: 2e-12, Mu: 0.5},
	}}
	tandem := network.Network{
		Switches: []network.Dim{{N1: 4, N2: 4}, {N1: 4, N2: 4}, {N1: 4, N2: 4}},
		Routes: []network.Route{
			{Name: "long", Path: []int{0, 1, 2}, Rate: 0.5, Mu: 1},
			{Name: "left", Path: []int{0}, Rate: 0.6, Mu: 1},
			{Name: "right", Path: []int{2}, Rate: 0.6, Mu: 1},
		},
	}
	skewed := traffic.Matrix{{3, 1, 1}, {1, 1, 0.5}, {0.2, 1, 2}}
	return []simCase{
		{"sim/bench-50-800", func() (any, error) {
			return sim.Run(sim.Config{Switch: bench, Seed: 7, Warmup: 50, Horizon: 800})
		}},
		{"sim/bench-0-500-b2", func() (any, error) {
			return sim.Run(sim.Config{Switch: bench, Seed: 11, Horizon: 500, Batches: 2})
		}},
		{"sim/5x9-20-600-b7", func() (any, error) {
			return sim.Run(sim.Config{Switch: core.Switch{N1: 5, N2: 9, Classes: []core.Class{
				{Name: "p", A: 1, Alpha: 0.09, Mu: 1},
				{Name: "b", A: 2, Alpha: 0.004, Beta: 0.006, Mu: 0.5},
			}}, Seed: 3, Warmup: 20, Horizon: 600, Batches: 7})
		}},
		{"sim/wide-20-200", func() (any, error) {
			return sim.Run(sim.Config{Switch: wide, Seed: 8, Warmup: 20, Horizon: 200})
		}},
		{"sim/farm-50-600", func() (any, error) {
			return sim.Farm(sim.FarmConfig{Config: sim.Config{Switch: farm, Seed: 99, Warmup: 50, Horizon: 600}, Reps: 4, Workers: 2})
		}},
		{"clos/corpus-20-200", func() (any, error) {
			return clos.Simulate(clos.Network{M: 5, N: 3, R: 4}, clos.SimConfig{PerInputLoad: 0.7, Mu: 1, Policy: clos.FirstFit, Seed: 2, Warmup: 20, Horizon: 200})
		}},
		{"clos/determinism-100-5000", func() (any, error) {
			return clos.Simulate(clos.Network{M: 4, N: 3, R: 3}, clos.SimConfig{PerInputLoad: 0.5, Mu: 1, Seed: 5, Warmup: 100, Horizon: 5000})
		}},
		{"clos/random-try-30-300-b10", func() (any, error) {
			return clos.Simulate(clos.Network{M: 3, N: 3, R: 4}, clos.SimConfig{PerInputLoad: 0.8, Mu: 1, Policy: clos.RandomTry, Seed: 4, Warmup: 30, Horizon: 300, Batches: 10})
		}},
		{"hotspot/corpus-20-200", func() (any, error) {
			return hotspot.Simulate(hotspot.Model{N1: 8, N2: 8, Lambda: 5, Mu: 1, HotFraction: 0.3}, hotspot.SimConfig{Seed: 6, Warmup: 20, Horizon: 200})
		}},
		{"hotspot/exact-500-20000", func() (any, error) {
			return hotspot.Simulate(hotspot.Model{N1: 5, N2: 6, Lambda: 4, Mu: 1, HotFraction: 0.5}, hotspot.SimConfig{Seed: 3, Warmup: 500, Horizon: 20000})
		}},
		{"ipp/bursty-20-200", func() (any, error) {
			return ipp.SimulateCrossbar(5, 5, ipp.Source{Lambda: 4, OnToOff: 0.8, OffToOn: 1.2}, 1, ipp.SimConfig{Seed: 3, Warmup: 20, Horizon: 200})
		}},
		{"ipp/poisson-500-20000-b40", func() (any, error) {
			return ipp.SimulateCrossbar(5, 5, ipp.Source{Lambda: 1.01, OnToOff: 0.01, OffToOn: 1000}, 1, ipp.SimConfig{Seed: 2, Warmup: 500, Horizon: 20000, Batches: 40})
		}},
		{"network/tandem-0-3000", func() (any, error) {
			return network.Simulate(tandem, network.SimConfig{Seed: 9, Horizon: 3000})
		}},
		{"network/tandem-30-300-b10", func() (any, error) {
			return network.Simulate(tandem, network.SimConfig{Seed: 2, Warmup: 30, Horizon: 300, Batches: 10})
		}},
		{"overflow/corpus-30-300", func() (any, error) {
			return overflow.Run(overflow.Config{PrimaryN: 8, SecondaryN: 6, Lambda: 40, Mu: 1, Seed: 4, Warmup: 30, Horizon: 300})
		}},
		{"overflow/determinism-100-5000", func() (any, error) {
			return overflow.Run(overflow.Config{PrimaryN: 3, SecondaryN: 3, Lambda: 2, Mu: 1, Seed: 9, Warmup: 100, Horizon: 5000})
		}},
		{"retrial/corpus-20-200", func() (any, error) {
			return retrial.Run(retrial.Config{N1: 6, N2: 6, Lambda: 30, Mu: 1, RetryRate: 2, MaxAttempts: 3, Seed: 5, Warmup: 20, Horizon: 200})
		}},
		{"retrial/cleared-20-200", func() (any, error) {
			return retrial.Run(retrial.Config{N1: 8, N2: 8, Lambda: 20, Mu: 1, Seed: 10, Warmup: 20, Horizon: 200})
		}},
		{"retrial/determinism-2000-5000", func() (any, error) {
			return retrial.Run(retrial.Config{N1: 6, N2: 6, Lambda: 4, Mu: 1, RetryRate: 1, MaxAttempts: 3, Seed: 1, Warmup: 2000, Horizon: 5000})
		}},
		{"traffic/determinism-100-5000", func() (any, error) {
			return traffic.Simulate(traffic.NewUniform(4, 4), traffic.SimConfig{Lambda: 2, Mu: 1, Seed: 7, Warmup: 100, Horizon: 5000})
		}},
		{"traffic/skewed-20-200-b10", func() (any, error) {
			return traffic.Simulate(skewed, traffic.SimConfig{Lambda: 3, Mu: 1, Seed: 3, Warmup: 20, Horizon: 200, Batches: 10})
		}},
		{"wdm/corpus-20-200", func() (any, error) {
			return wdm.Simulate(wdm.Path{L: 3, W: 8, Rate: 4, CrossRate: 1, Mu: 1}, wdm.SimConfig{Assignment: wdm.RandomFit, Seed: 3, Warmup: 20, Horizon: 200})
		}},
		{"wdm/converters-20-200", func() (any, error) {
			return wdm.Simulate(wdm.Path{L: 4, W: 6, Rate: 3, Mu: 1}, wdm.SimConfig{Converters: true, Seed: 9, Warmup: 20, Horizon: 200})
		}},
		{"wdm/first-fit-500-20000", func() (any, error) {
			return wdm.Simulate(wdm.Path{L: 3, W: 8, Rate: 1.5, CrossRate: 3, Mu: 1}, wdm.SimConfig{Assignment: wdm.FirstFit, Seed: 6, Warmup: 500, Horizon: 20000})
		}},
	}
}

// dumpBits writes one line per leaf of v: float64 leaves as the hex of
// math.Float64bits (so NaN payloads, signed zeros and the last ulp all
// show), integers in decimal, slices with their length.
func dumpBits(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprintf(b, "%s nil\n", path)
			return
		}
		dumpBits(b, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dumpBits(b, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		fmt.Fprintf(b, "%s len %d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpBits(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Float64:
		fmt.Fprintf(b, "%s %016x\n", path, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		fmt.Fprintf(b, "%s %d\n", path, v.Int())
	case reflect.String:
		fmt.Fprintf(b, "%s %q\n", path, v.String())
	default:
		fmt.Fprintf(b, "%s unhandled kind %s\n", path, v.Kind())
	}
}

// TestSimulatorsGolden pins every float (by its bits) and every count
// of the event-driven simulators' Results, so a change inside a
// simulator's batch-means bookkeeping that moves any answer by one ulp
// fails here. Regenerate with -update-sim-golden only when a change is
// meant to move answers.
func TestSimulatorsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range simGoldenCases() {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		dumpBits(&b, c.name, reflect.ValueOf(res))
	}
	path := filepath.Join("testdata", "simulators.golden")
	if *updateSimGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-sim-golden to create it)", err)
	}
	got := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(got), len(wantLines))
	}
}
