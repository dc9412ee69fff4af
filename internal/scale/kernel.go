package scale

import "math"

// This file holds the fused lattice kernels for internal/core's
// Algorithm 1 fill. Accumulating a cell through the Acc wrappers costs
// one addRaw call per term; the kernels here inline the alignment core
// (rawAdd) instead. For the workload shape every figure of the paper
// uses — exactly one Poisson and one bursty class — the whole cell
// collapses into a single call (QCellPB); every other class mix runs
// as per-class passes over a row segment (RowInit, RowAddMul, RowAddW,
// RowMulNorm), one call per class per row instead of one per term.

// QCellPB advances one interior Eq. 10 cell for the one-Poisson-plus-
// one-bursty class mix. It returns the normalized Q value of the cell
// and the cell's raw W working value (the coefficient-scaled Eq. 9
// V term), and is exactly the sequence
//
//	var wa Acc
//	wa.InitMul(qB, cb)
//	wa.AddMulAcc(w, bm)
//	var acc Acc
//	acc.Init(qUp)
//	acc.AddMul(qP, cp)
//	acc.AddAcc(wa)
//	return acc.MulNorm(inv), wa
//
// fused into one call; TestQCellPB pins bit-identity against that
// unfused sequence. Preconditions: qUp, qP, qB, cp, cb and bm are
// non-zero (interior on-lattice Q is strictly positive and class
// coefficients are validated positive); w may hold any working value,
// including zero.
func QCellPB(qUp, qP, qB Number, w Acc, cp, cb, bm Number, inv float64) (Number, Acc) {
	// wa = cb*qB + bm*w, the W recursion step.
	waf := qB.frac * cb.frac
	wae := qB.exp + cb.exp
	if w.frac != 0 { //lint:allow floatcmp frac == 0 is the canonical exact representation of Zero
		waf, wae = rawAdd(waf, wae, w.frac*bm.frac, w.exp+bm.exp)
	}
	// acc = qUp + cp*qP + wa, then normalize once against 1/n1. The
	// normalization is normFrac's hot path spelled out in place —
	// normFrac itself is beyond the inlining budget here and a second
	// call per cell would give back much of the fusion's win.
	af, ae := rawAdd(qUp.frac, qUp.exp, qP.frac*cp.frac, qP.exp+cp.exp)
	af, ae = rawAdd(af, ae, waf, wae)
	af *= inv
	bits := math.Float64bits(af)
	be := int(bits >> 52 & 0x7ff)
	if uint(be-1) >= 0x7fe {
		return normSlow(af, ae), Acc{frac: waf, exp: wae}
	}
	return Number{
		frac: math.Float64frombits(bits&^(uint64(0x7ff)<<52) | uint64(1022)<<52),
		exp:  ae + be - 1022,
	}, Acc{frac: waf, exp: wae}
}

// The row kernels fill a row segment of the Eq. 10 lattice through a
// row of Acc accumulators: RowInit, then one RowAddMul per Poisson
// class and one RowAddW per bursty class in class order, then
// RowMulNorm. Per cell the float operations are exactly those of the
// Acc wrapper sequence — Init, AddMul per Poisson class, InitMul/
// AddMulAcc/AddAcc per bursty class, MulNorm — so the row pass
// reproduces a per-cell fill bit for bit (TestRowKernels). Every slice
// argument must be at least as long as acc.

// RowInit starts each accumulator of acc at the matching up cell: the
// Q(n - 1_1) term every Eq. 10 cell begins with (Acc.Init per cell).
func RowInit(acc []Acc, up []Number) {
	up = up[:len(acc)]
	for k := range acc {
		acc[k] = Acc{frac: up[k].frac, exp: up[k].exp}
	}
}

// RowAddMul adds q[k]*f to acc[k] for every cell of the segment: one
// Poisson class's a_r rho_r Q(n - a_r I) term (Acc.AddMul per cell).
func RowAddMul(acc []Acc, q []Number, f Number) {
	q = q[:len(acc)]
	for k := range acc {
		acc[k].frac, acc[k].exp = rawAdd(acc[k].frac, acc[k].exp, q[k].frac*f.frac, q[k].exp+f.exp)
	}
}

// RowAddW advances one bursty class over the segment: it stores the
// cell's W working value w[k] = cb*q[k] + bm*wd[k], with q the
// displaced Q(n - a_r I) and wd the displaced W(n - a_r I), and adds
// it to acc[k] (Acc.InitMul, AddMulAcc, then AddAcc per cell).
func RowAddW(acc, w []Acc, q []Number, wd []Acc, cb, bm Number) {
	w = w[:len(acc)]
	q = q[:len(acc)]
	wd = wd[:len(acc)]
	for k := range acc {
		waf, wae := rawAdd(q[k].frac*cb.frac, q[k].exp+cb.exp, wd[k].frac*bm.frac, wd[k].exp+bm.exp)
		w[k] = Acc{frac: waf, exp: wae}
		acc[k].frac, acc[k].exp = rawAdd(acc[k].frac, acc[k].exp, waf, wae)
	}
}

// RowMulNorm finishes the segment: dst[k] = acc[k] * inv, normalized
// (Acc.MulNorm per cell). The normalization is normFrac's hot path
// spelled out in place, as in QCellPB: normFrac itself is beyond the
// inlining budget.
func RowMulNorm(dst []Number, acc []Acc, inv float64) {
	dst = dst[:len(acc)]
	for k := range acc {
		f := acc[k].frac * inv
		bits := math.Float64bits(f)
		be := int(bits >> 52 & 0x7ff)
		if uint(be-1) >= 0x7fe {
			dst[k] = normSlow(f, acc[k].exp)
			continue
		}
		dst[k] = Number{
			frac: math.Float64frombits(bits&^(uint64(0x7ff)<<52) | uint64(1022)<<52),
			exp:  acc[k].exp + be - 1022,
		}
	}
}
