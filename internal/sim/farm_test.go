package sim

import (
	"reflect"
	"testing"

	"xbar/internal/core"
)

func farmSwitch() core.Switch {
	return core.Switch{N1: 8, N2: 8, Classes: []core.Class{
		{Name: "p1", A: 1, Alpha: 0.08, Mu: 1},
		{Name: "b1", A: 1, Alpha: 0.01, Beta: 0.01, Mu: 1},
		{Name: "w2", A: 2, Alpha: 0.001, Mu: 1},
	}}
}

// TestFarmDeterministicAcrossWorkers pins the farm's headline
// guarantee: for a fixed (Config, Reps), the pooled result is
// bit-identical regardless of worker count — replication i's
// substream and the merge order never depend on scheduling.
func TestFarmDeterministicAcrossWorkers(t *testing.T) {
	fc := FarmConfig{
		Config: Config{Switch: farmSwitch(), Seed: 99, Warmup: 50, Horizon: 600},
		Reps:   6,
	}
	var ref *FarmResult
	for _, w := range []int{1, 2, 3, 6, 16} {
		fc.Workers = w
		res, err := Farm(fc)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d: farm result differs from workers=1 result", w)
		}
	}
}

// TestFarmDeterministicAcrossRuns pins run-to-run reproducibility of
// both Run and Farm for a fixed seed.
func TestFarmDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{Switch: farmSwitch(), Seed: 4, Warmup: 50, Horizon: 600}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("Run is not reproducible for a fixed seed")
	}
	fc := FarmConfig{Config: cfg, Reps: 4, Workers: 4}
	f1, err := Farm(fc)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Farm(fc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Error("Farm is not reproducible for a fixed seed")
	}
}

// TestFarmPoolsEveryReplication checks the pooled event count and
// interval tightening: R replications pool R*Batches batch means, so
// the standard error must shrink against a single replication's.
func TestFarmPoolsEveryReplication(t *testing.T) {
	cfg := Config{Switch: farmSwitch(), Seed: 21, Warmup: 50, Horizon: 600}
	single, err := Farm(FarmConfig{Config: cfg, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Farm(FarmConfig{Config: cfg, Reps: 16})
	if err != nil {
		t.Fatal(err)
	}
	if pooled.Events <= single.Events {
		t.Errorf("pooled farm events %d not above single replication %d", pooled.Events, single.Events)
	}
	if s, p := single.MeanOccupancy.SE, pooled.MeanOccupancy.SE; !(p < s) {
		t.Errorf("pooling 16 replications did not tighten SE: single %g pooled %g", s, p)
	}
}

func TestFarmRejectsBadReps(t *testing.T) {
	_, err := Farm(FarmConfig{Config: Config{Switch: farmSwitch(), Horizon: 10}, Reps: 0})
	if err == nil {
		t.Fatal("Farm accepted Reps=0")
	}
}

// TestValidateAgainstAnalytic is the farm-vs-analytic safety net: on
// a moderate fabric every pooled estimate must sit within 4 sigma of
// the product-form solution (the CI job gates at 3 sigma with more
// replications; 4 keeps this unit test's false-failure rate
// negligible while still catching any real estimator bug, which
// shows up tens of sigma out).
func TestValidateAgainstAnalytic(t *testing.T) {
	v, err := Validate(FarmConfig{
		Config: Config{Switch: farmSwitch(), Seed: 12, Warmup: 100, Horizon: 2000},
		Reps:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Measures) == 0 {
		t.Fatal("validation produced no measures")
	}
	if v.MaxAbsZ > 4 {
		for _, m := range v.Measures {
			t.Logf("class %d %s: sim %.6g analytic %.6g z %.2f", m.Class, m.Name, m.Sim, m.Analytic, m.Z)
		}
		t.Errorf("max |z| = %.2f exceeds 4", v.MaxAbsZ)
	}
}
