package scale

import (
	"math"
	"testing"
)

// TestQCellPB pins the fused cell kernel to the unfused Acc wrapper
// sequence it documents, bit for bit, across sign mixes, wide
// exponent spreads (including past the 1075-order absorption cutoff)
// and zero W cells.
func TestQCellPB(t *testing.T) {
	nums := []Number{
		FromFloat64(0.75),
		FromFloat64(1.5e-8),
		FromFloat64(3.25e9),
		FromLog(-700), // far below float64 range
		FromLog(650),
		FromFloat64(0.5000000001),
	}
	ws := []Acc{
		{}, // zero W cell
		{frac: 0.625, exp: 12},
		{frac: 1.75, exp: -2000}, // unnormalized, deep underflow range
		{frac: 900.5, exp: 1800}, // drifted working fraction
		{frac: -0.8125, exp: 40}, // sign flip
		{frac: 0.5, exp: 0},
	}
	invs := []float64{1, 0.5, 1.0 / 3, 1.0 / 255}
	for _, qUp := range nums {
		for _, qP := range nums {
			for _, qB := range nums {
				for _, w := range ws {
					for _, inv := range invs {
						cp := FromFloat64(0.037)
						cb := FromFloat64(0.021)
						bm := FromFloat64(0.42)

						var wa Acc
						wa.InitMul(qB, cb)
						wa.AddMulAcc(w, bm)
						var acc Acc
						acc.Init(qUp)
						acc.AddMul(qP, cp)
						acc.AddAcc(wa)
						wantQ := acc.MulNorm(inv)

						gotQ, gotW := QCellPB(qUp, qP, qB, w, cp, cb, bm, inv)
						if gotQ != wantQ {
							t.Fatalf("QCellPB q = %#v, want %#v (qUp=%v qP=%v qB=%v w=%+v inv=%v)",
								gotQ, wantQ, qUp, qP, qB, w, inv)
						}
						if gotW != wa {
							t.Fatalf("QCellPB w = %+v, want %+v (qB=%v w=%+v)", gotW, wa, qB, w)
						}
					}
				}
			}
		}
	}
}

// TestQCellPBRecursionStep checks the kernel against a directly
// computed float64 cell in the range where no scaling is needed:
// Q = (qUp + cp*qP + cb*qB + bm*w) / n with W = cb*qB + bm*w.
func TestQCellPBRecursionStep(t *testing.T) {
	qUp, qP, qB := 0.375, 0.0625, 0.01171875
	wVal := 0.0078125
	cp, cb, bm := 0.25, 0.125, 0.5
	const n = 3.0

	var w Acc
	w.Init(FromFloat64(wVal))
	gotQ, gotW := QCellPB(
		FromFloat64(qUp), FromFloat64(qP), FromFloat64(qB), w,
		FromFloat64(cp), FromFloat64(cb), FromFloat64(bm), 1/n)

	wantW := cb*qB + bm*wVal
	wantQ := (qUp + cp*qP + wantW) / n
	if got := gotW.Norm().Float64(); math.Abs(got-wantW) > 1e-15 {
		t.Fatalf("W = %g, want %g", got, wantW)
	}
	if got := gotQ.Float64(); math.Abs(got-wantQ) > 1e-15 {
		t.Fatalf("Q = %g, want %g", got, wantQ)
	}
}

// TestRowKernels pins the row kernels to the Acc wrapper sequence of
// one Eq. 10 cell — Init, AddMul per Poisson term, InitMul/AddMulAcc/
// AddAcc per bursty term, MulNorm — bit for bit, over rows built from
// the same edge values as TestQCellPB: wide exponent spreads (past the
// 1075-order absorption cutoff and through the split-shift range),
// sign flips and zero W cells.
func TestRowKernels(t *testing.T) {
	nums := []Number{
		FromFloat64(0.75),
		FromFloat64(1.5e-8),
		FromFloat64(3.25e9),
		FromLog(-700),
		FromLog(650),
		FromFloat64(-0.5000000001),
		{frac: 0.5, exp: -1060},
		{frac: 0.75, exp: 1040},
	}
	ws := []Acc{
		{},
		{frac: 0.625, exp: 12},
		{frac: 1.75, exp: -2000},
		{frac: 900.5, exp: 1800},
		{frac: -0.8125, exp: 40},
		{frac: 0.5, exp: -1050},
	}
	coefs := []Number{FromFloat64(0.037), FromLog(-745), FromFloat64(2.5e7)}
	// Every combination of up, Poisson and bursty operands is one cell
	// of the row.
	var up, qp, qb []Number
	var wd []Acc
	for _, u := range nums {
		for _, p := range nums {
			for _, b := range nums {
				for _, w := range ws {
					up, qp, qb, wd = append(up, u), append(qp, p), append(qb, b), append(wd, w)
				}
			}
		}
	}
	for _, cp := range coefs {
		for _, cb := range coefs {
			bm := FromFloat64(0.42)
			inv := 1.0 / 7
			acc := make([]Acc, len(up))
			w := make([]Acc, len(up))
			q := make([]Number, len(up))
			RowInit(acc, up)
			RowAddMul(acc, qp, cp)
			RowAddW(acc, w, qb, wd, cb, bm)
			RowAddMul(acc, qb, cb)
			RowMulNorm(q, acc, inv)
			for k := range up {
				var c Acc
				c.Init(up[k])
				c.AddMul(qp[k], cp)
				var wa Acc
				wa.InitMul(qb[k], cb)
				wa.AddMulAcc(wd[k], bm)
				c.AddAcc(wa)
				c.AddMul(qb[k], cb)
				want := c.MulNorm(inv)
				if math.Float64bits(w[k].frac) != math.Float64bits(wa.frac) || w[k].exp != wa.exp {
					t.Fatalf("cell %d: W = %+v, want %+v", k, w[k], wa)
				}
				if math.Float64bits(q[k].frac) != math.Float64bits(want.frac) || q[k].exp != want.exp {
					t.Fatalf("cell %d: Q = %#v, want %#v (up=%v qp=%v qb=%v wd=%+v)", k, q[k], want, up[k], qp[k], qb[k], wd[k])
				}
			}
		}
	}
}
