package workload

import (
	"math"
	"testing"

	"xbar/internal/floats"
)

// TestTable1MatchesPaper pins every printed Table 1 value.
func TestTable1MatchesPaper(t *testing.T) {
	want := []Table1Row{
		{N: 4, Rho1: 0.000600, Rho2: 0.000800},
		{N: 8, Rho1: 0.000300, Rho2: 0.000171},
		{N: 16, Rho1: 0.000150, Rho2: 0.0000400},
		{N: 32, Rho1: 0.0000750, Rho2: 0.00000967},
		{N: 64, Rho1: 0.0000375, Rho2: 0.00000238},
	}
	rows := Table1(Figure4Ns())
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i].N != w.N {
			t.Errorf("row %d: N = %d, want %d", i, rows[i].N, w.N)
		}
		// The paper prints 3 significant digits.
		if !floats.WithinRel(rows[i].Rho1, w.Rho1, 5e-3) {
			t.Errorf("N=%d: rho~1 = %v, paper %v", w.N, rows[i].Rho1, w.Rho1)
		}
		if !floats.WithinRel(rows[i].Rho2, w.Rho2, 5e-3) {
			t.Errorf("N=%d: rho~2 = %v, paper %v", w.N, rows[i].Rho2, w.Rho2)
		}
	}
}

// TestFigure1Shape: Poisson upper-bounds the Bernoulli family, every
// curve increases with N, and stronger smoothing lowers blocking.
func TestFigure1Shape(t *testing.T) {
	series, err := Figure1(FigureNs())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("%d series", len(series))
	}
	for si, s := range series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Value <= s.Points[i-1].Value {
				t.Errorf("%s: blocking not increasing at N=%d", s.Label, s.Points[i].N)
			}
		}
		if si > 0 {
			// More negative beta~ (later series) means lower blocking,
			// with Poisson (series 0) the upper bound. At N=1 the
			// state never reaches k=2, so beta cannot act yet.
			for i := range s.Points {
				if s.Points[i].N < 2 {
					continue
				}
				if s.Points[i].Value >= series[si-1].Points[i].Value {
					t.Errorf("%s at N=%d: %v not below %s's %v",
						s.Label, s.Points[i].N, s.Points[i].Value,
						series[si-1].Label, series[si-1].Points[i].Value)
				}
			}
		}
	}
	// Operating point: blocking near 0.5% at N=128 for the Poisson
	// bound (the paper's stated design point).
	last := series[0].Points[len(series[0].Points)-1]
	if last.N != 128 || last.Value < 0.003 || last.Value > 0.007 {
		t.Errorf("Poisson blocking at N=128 = %v, want ~0.005", last.Value)
	}
}

// TestFigure1SmallEffect: the paper reports ~0.1% (relative) blocking
// difference between Poisson and the strongest smooth curve at N=128.
func TestFigure1SmallEffect(t *testing.T) {
	series, err := Figure1([]int{128})
	if err != nil {
		t.Fatal(err)
	}
	poisson := series[0].Points[0].Value
	smooth := series[3].Points[0].Value
	rel := (poisson - smooth) / poisson
	if rel <= 0 || rel > 0.01 {
		t.Errorf("smooth effect %.4f, paper reports ~0.001 relative", rel)
	}
}

// TestFigure2Shape: peaky traffic dramatically increases blocking, and
// more peakedness means more blocking at every N.
func TestFigure2Shape(t *testing.T) {
	series, err := Figure2(FigureNs())
	if err != nil {
		t.Fatal(err)
	}
	for si := 1; si < len(series); si++ {
		for i := range series[si].Points {
			if series[si].Points[i].N < 2 {
				continue // beta has no effect until k can reach 2
			}
			if series[si].Points[i].Value <= series[si-1].Points[i].Value {
				t.Errorf("%s at N=%d: %v not above %s's %v",
					series[si].Label, series[si].Points[i].N, series[si].Points[i].Value,
					series[si-1].Label, series[si-1].Points[i].Value)
			}
		}
	}
	// "Dramatic impact": the strongest peaky curve at N=128 well above
	// the Poisson bound.
	n := len(series[0].Points) - 1
	if series[3].Points[n].Value < 1.5*series[0].Points[n].Value {
		t.Errorf("peaky blocking %v vs Poisson %v: expected dramatic impact",
			series[3].Points[n].Value, series[0].Points[n].Value)
	}
}

// TestFigure3Shape: the R1+R2 mix at the same total alpha~ tracks the
// R2-only curve closely (the Poisson class only shifts the operating
// point), and both respond to beta~ in the same direction.
func TestFigure3Shape(t *testing.T) {
	series, err := Figure3(FigureNs())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("%d series", len(series))
	}
	for i := range series[0].Points {
		solo, both := series[0].Points[i].Value, series[1].Points[i].Value
		if math.Abs(solo-both) > 0.5*solo {
			t.Errorf("N=%d: solo %v vs mixed %v diverge more than the operating-point shift should allow",
				series[0].Points[i].N, solo, both)
		}
	}
}

// TestFigure4Shape: a=2 blocks significantly more than a=1 at equal
// total load — the paper's multi-rate contention result.
func TestFigure4Shape(t *testing.T) {
	series, err := Figure4(Figure4Ns())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for i := range series[0].Points {
		b1, b2 := series[0].Points[i].Value, series[1].Points[i].Value
		if b2 <= b1 {
			t.Errorf("N=%d: a=2 blocking %v should exceed a=1 blocking %v",
				series[0].Points[i].N, b2, b1)
		}
	}
}

// TestTable2Shape reproduces the qualitative Table 2 columns: revenue
// grows ~linearly with N, dW/drho1 grows ~N^2, the bursty gradient is
// negative from N=8 up with growing magnitude, and blocking sits near
// the 0.5%% operating point. Exact values are pinned for N=1 (the row
// the derived model matches digit-for-digit).
func TestTable2Shape(t *testing.T) {
	rows, err := Table2(Table2Sets()[0], Table2Ns())
	if err != nil {
		t.Fatal(err)
	}
	if !floats.WithinRel(rows[0].Blocking, 0.00239425, 1e-4) {
		t.Errorf("N=1 blocking %v, paper 0.00239425", rows[0].Blocking)
	}
	if !floats.WithinRel(rows[0].W, 0.00119725, 1e-4) {
		t.Errorf("N=1 W %v, paper 0.00119725", rows[0].W)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].W <= rows[i-1].W {
			t.Errorf("W not increasing at N=%d", rows[i].N)
		}
		if rows[i].GradRho1 <= rows[i-1].GradRho1 {
			t.Errorf("dW/drho1 not increasing at N=%d", rows[i].N)
		}
	}
	// Revenue doubles with N (doubling both dimensions doubles carried
	// traffic at a fixed aggregate per-input-set load ... within a few
	// percent).
	for i := 1; i < len(rows); i++ {
		ratio := rows[i].W / rows[i-1].W
		if ratio < 1.8 || ratio > 2.2 {
			t.Errorf("W ratio N=%d/%d = %v, want ~2", rows[i].N, rows[i-1].N, ratio)
		}
	}
	// Bursty gradient negative and growing in magnitude from N=8.
	var prev float64
	for _, row := range rows {
		if row.N >= 8 {
			if row.GradBeta2 >= 0 {
				t.Errorf("N=%d: dW/d(beta2/mu2) = %v, want negative", row.N, row.GradBeta2)
			}
			if prev != 0 && math.Abs(row.GradBeta2) <= math.Abs(prev) {
				t.Errorf("N=%d: bursty gradient magnitude not growing", row.N)
			}
			prev = row.GradBeta2
		}
	}
}

// TestTable2SetOrdering: at every N, set 3 (triple rho~2) blocks more
// than set 1, and set 2 (triple beta~2) blocks at least as much as
// set 1 once beta matters.
func TestTable2SetOrdering(t *testing.T) {
	ns := []int{4, 16, 64}
	sets := Table2Sets()
	r1, err := Table2(sets[0], ns)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Table2(sets[1], ns)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Table2(sets[2], ns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ns {
		if !(r3[i].Blocking > r1[i].Blocking) {
			t.Errorf("N=%d: set3 blocking %v should exceed set1 %v", ns[i], r3[i].Blocking, r1[i].Blocking)
		}
		if !(r2[i].Blocking > r1[i].Blocking) {
			t.Errorf("N=%d: set2 blocking %v should exceed set1 %v", ns[i], r2[i].Blocking, r1[i].Blocking)
		}
		if !(r3[i].W < r1[i].W) {
			t.Errorf("N=%d: set3 revenue %v should trail set1 %v (class 2 is nearly worthless)", ns[i], r3[i].W, r1[i].W)
		}
	}
}
