package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstNaive(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, r := range raw {
			if !math.IsNaN(r) && !math.IsInf(r, 0) && math.Abs(r) < 1e6 {
				xs = append(xs, r)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(xs)-1)
		okMean := math.Abs(w.Mean()-mean) <= 1e-9*math.Max(1, math.Abs(mean))
		okVar := math.Abs(w.Variance()-naiveVar) <= 1e-6*math.Max(1, naiveVar)
		return okMean && okVar && w.N() == int64(len(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Error("empty Welford not zero")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 {
		t.Error("single-sample Welford wrong")
	}
}

func TestTimeWeightedPiecewise(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 2) // value 2 on [0, 1)
	tw.Observe(1, 4) // value 4 on [1, 3)
	tw.Observe(3, 0) // value 0 on [3, 5)
	tw.CloseAt(5)
	want := (2*1 + 4*2 + 0*2) / 5.0
	if got := tw.Mean(); math.Abs(got-want) > 1e-12 {
		t.Errorf("time mean %v, want %v", got, want)
	}
	if tw.Duration() != 5 {
		t.Errorf("duration %v, want 5", tw.Duration())
	}
}

func TestTimeWeightedConstant(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(10, 7)
	tw.CloseAt(20)
	if got := tw.Mean(); got != 7 {
		t.Errorf("constant process mean %v, want 7", got)
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var tw TimeWeighted
	if tw.Mean() != 0 {
		t.Error("empty TimeWeighted mean not 0")
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("backwards time did not panic")
		}
	}()
	var tw TimeWeighted
	tw.Observe(5, 1)
	tw.Observe(4, 2)
}

func TestBatchMeansCoverage(t *testing.T) {
	// With normal batches, a 95% CI should contain the true mean about
	// 95% of the time.
	rng := rand.New(rand.NewSource(1))
	const trials = 400
	const batches = 20
	covered := 0
	for trial := 0; trial < trials; trial++ {
		bs := make([]float64, batches)
		for i := range bs {
			bs[i] = 3 + rng.NormFloat64()
		}
		if BatchMeans(bs, 0.95).Contains(3) {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.91 || rate > 0.99 {
		t.Errorf("95%% CI covered %v of trials", rate)
	}
}

func TestBatchMeansDegenerate(t *testing.T) {
	ci := BatchMeans([]float64{4}, 0.95)
	if !math.IsInf(ci.HalfWidth, 1) {
		t.Error("single batch should give infinite half-width")
	}
	ci = BatchMeans([]float64{2, 2, 2, 2}, 0.95)
	if ci.HalfWidth != 0 || ci.Mean != 2 {
		t.Errorf("constant batches: %+v", ci)
	}
}

func TestCIEndpoints(t *testing.T) {
	ci := CI{Mean: 10, HalfWidth: 2, Level: 0.95, N: 5}
	if ci.Lo() != 8 || ci.Hi() != 12 {
		t.Error("CI endpoints wrong")
	}
	if !ci.Contains(9) || ci.Contains(13) {
		t.Error("CI Contains wrong")
	}
	if ci.String() == "" {
		t.Error("CI String empty")
	}
}

func TestTQuantileTable(t *testing.T) {
	cases := []struct {
		df    int
		level float64
		want  float64
	}{
		{1, 0.95, 12.706},
		{10, 0.95, 2.228},
		{30, 0.95, 2.042},
		{5, 0.99, 4.032},
	}
	for _, c := range cases {
		if got := TQuantile(c.df, c.level); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("TQuantile(%d, %v) = %v, want %v", c.df, c.level, got, c.want)
		}
	}
	// Large df approaches the normal quantile.
	if got := TQuantile(10000, 0.95); math.Abs(got-1.96) > 0.01 {
		t.Errorf("TQuantile(10000, .95) = %v", got)
	}
	if got := TQuantile(0, 0.95); !math.IsInf(got, 1) {
		t.Errorf("TQuantile(0) = %v, want +Inf", got)
	}
	// Unusual level falls back to the normal quantile.
	if got := TQuantile(50, 0.90); math.Abs(got-1.6449) > 0.01 {
		t.Errorf("TQuantile(50, .90) = %v, want ~1.645", got)
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.025, -1.959964},
		{0.999, 3.090232},
		{0.001, -3.090232},
	}
	for _, c := range cases {
		if got := normalQuantile(c.p); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("normalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("normalQuantile(0) did not panic")
		}
	}()
	normalQuantile(0)
}

// TestBatchCI: fewer than two batches give the no-data interval
// NaN ± Inf; two or more are BatchMeans exactly.
func TestBatchCI(t *testing.T) {
	for _, xs := range [][]float64{nil, {0.25}} {
		ci := BatchCI(xs, 0.99)
		if !math.IsNaN(ci.Mean) || !math.IsInf(ci.HalfWidth, 1) || !math.IsInf(ci.SE, 1) || ci.Level != 0.99 || ci.N != len(xs) {
			t.Errorf("BatchCI(%v) = %+v, want NaN ± Inf at 0.99 with N %d", xs, ci, len(xs))
		}
	}
	xs := []float64{0.1, 0.3, 0.2}
	if got, want := BatchCI(xs, 0.95), BatchMeans(xs, 0.95); got != want {
		t.Errorf("BatchCI(%v) = %+v, want BatchMeans %+v", xs, got, want)
	}
}
