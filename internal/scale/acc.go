package scale

import "math"

// This file holds the fused accumulation primitives the lattice
// recursions (internal/core alg1) run on. The eager Number methods
// renormalize after every operation — a MulFloat+Add chain costs three
// Frexp calls per term — which dominates the per-cell cost of the
// Eq. 10 fill. Acc defers normalization: terms are accumulated as a raw
// working fraction against a shared binary exponent and the single
// Frexp happens when the finished sum is read back. With every term a
// normalized Number, the working fraction stays within a factor of the
// term count of [0.5, 1), far inside float64 range, so the deferred
// path loses no precision relative to the eager one.

// Acc accumulates a sum of scaled values without intermediate
// normalization. The zero Acc is the empty sum (value 0) and is ready
// to use. Accumulate with Add/AddMul, then read the total with Norm or
// DivFloat.
//
// An Acc is also a storable working value: the V lattices of the
// Eq. 9/10 recursion keep whole grids of in-flight accumulators
// (InitMul/AddMulAcc/AddAcc) and only the Q cells they feed are ever
// normalized. The working fraction of such a chain grows by at most
// one unit of magnitude per recursion step, so even a 2^900-cell
// dependency chain stays inside float64 range; the lattices the
// solvers build are bounded by the switch size, a dozen binary orders
// at most.
type Acc struct {
	frac float64
	exp  int
}

// Init resets the accumulator to the value n.
func (a *Acc) Init(n Number) { a.frac, a.exp = n.frac, n.exp }

// InitMul resets the accumulator to the product n*f. A zero factor
// leaves the canonical empty accumulator (frac == 0; the exponent
// field is immaterial then, as everywhere in the package).
func (a *Acc) InitMul(n, f Number) { a.frac, a.exp = n.frac*f.frac, n.exp+f.exp }

// Add accumulates a += n. The factor 1 multiplies exactly, so the
// shared fused primitive adds n verbatim.
func (a *Acc) Add(n Number) {
	a.frac, a.exp = addRaw(a.frac, a.exp, n.frac, n.exp, 1, 0)
}

// AddAcc accumulates a += t, folding one in-flight accumulator into
// another without normalizing either.
func (a *Acc) AddAcc(t Acc) {
	a.frac, a.exp = addRaw(a.frac, a.exp, t.frac, t.exp, 1, 0)
}

// AddMulAcc accumulates a += t*f for an in-flight accumulator t, the
// AddMul twin used where a stored working value (a W-lattice cell)
// feeds the next recursion step directly. A zero product — either
// operand zero, or an already sub-absorption-threshold unnormalized
// fraction underflowing against f — contributes nothing.
func (a *Acc) AddMulAcc(t Acc, f Number) {
	a.frac, a.exp = addRaw(a.frac, a.exp, t.frac, t.exp, f.frac, f.exp)
}

// AddMul accumulates a += n*f in one step. f is typically a hoisted
// per-class constant, so the product costs one multiply and no
// renormalization.
func (a *Acc) AddMul(n, f Number) {
	a.frac, a.exp = addRaw(a.frac, a.exp, n.frac, n.exp, f.frac, f.exp)
}

// addRaw folds the contribution nf*ff * 2^(ne+fe) into the working
// sum af*2^ae, aligning to the larger exponent, and returns the new
// sum. A zero product contributes nothing. Contributions more than
// 1075 binary orders below the running exponent are absorbed,
// matching Number.Add (the cutoff is measured between working
// fractions, so it can differ from the eager path by the few binary
// orders an unnormalized fraction can drift — both far below one ulp
// of the total).
//
// addRaw is the one fused accumulate primitive: it takes the term as
// a fraction-exponent pair times a factor so that AddMul needs no
// body of its own (Add passes the exact factor 1), passes the
// accumulator by value, and is pinned out of line. Out of line, every
// exported wrapper is a plain call inside the inlining budget, so the
// hot path pays exactly one call per accumulated term; by value, the
// wrappers' receiver never has its address taken at the call site, so
// an accumulator local to a fill loop lives entirely in registers —
// the call moves its words through the register ABI instead of
// spilling the accumulator to the stack on every term.
//
//go:noinline
func addRaw(af float64, ae int, nf float64, ne int, ff float64, fe int) (float64, int) {
	return rawAdd(af, ae, nf*ff, ne+fe)
}

// rawAdd is the alignment core shared by addRaw and the fused cell
// kernels (kernel.go): it folds the unnormalized term frac*2^exp into
// the working sum af*2^ae and returns the new sum. Small enough to
// inline into its few callers, so the whole fused accumulate is still
// one call deep.
func rawAdd(af float64, ae int, frac float64, exp int) (float64, int) {
	if frac == 0 { //lint:allow floatcmp exact zero contributes nothing; subnormals still accumulate
		return af, ae
	}
	shift := ae - exp
	if af == 0 || shift < 0 { //lint:allow floatcmp empty accumulator takes the first term verbatim
		// Either the sum is empty — take the term and let the add
		// below fold in the old zero fraction, a bitwise no-op
		// whatever the (stale) shift says — or the term has the larger
		// exponent: swap so the single alignment multiply below always
		// lands on the smaller operand. Float64 addition commutes
		// bit-for-bit, so the swap is the same sum as aligning in
		// place.
		frac, af = af, frac
		ae = exp
		shift = max(shift, -shift)
	}
	// ldexpDown(frac, shift), spelled out in place; see ldexpDown for
	// the split-shift rationale. The absorption test nests inside the
	// rare split-shift branch: written this way (and with the max
	// above) rawAdd costs exactly the compiler's inlining budget of 80,
	// one branch more and every fill kernel pays a call per term.
	if shift > 1022 {
		if shift > 1075 {
			return af, ae
		}
		frac *= math.Float64frombits(uint64(2045-shift) << 52)
		shift = 1022
	}
	return af + frac*math.Float64frombits(uint64(1023-shift)<<52), ae
}

// ldexpDown returns f * 2^-k for 0 <= k <= 1075, the alignment step of
// the accumulator. It multiplies by an exactly representable power of
// two instead of calling math.Ldexp, whose zero/NaN/Inf/denormal
// bookkeeping dominates the fill profile; the product itself rounds
// (and gradually underflows) exactly as Ldexp would.
func ldexpDown(f float64, k int) float64 {
	if k > 1022 {
		// 2^-k is not representable; split the shift. The small factor
		// is applied first, while the value is still normal and the
		// multiply exact, so only the final 2^-1022 step rounds —
		// peeling 2^-1022 first would round twice and can differ from
		// Ldexp by one ulp at the bottom of the subnormal range
		// (TestLdexpDown covers the whole contract range).
		f *= math.Float64frombits(uint64(1023-(k-1022)) << 52)
		k = 1022
	}
	return f * math.Float64frombits(uint64(1023-k)<<52)
}

// Norm returns the accumulated value as a normalized Number.
func (a Acc) Norm() Number {
	return Number{frac: a.frac, exp: a.exp}.norm()
}

// MulNorm returns the accumulated value times f as a normalized
// Number, in a single normalization step. It is the multiply-by-
// reciprocal twin of DivFloat for hot loops that divide by the same
// small set of values repeatedly (the 1/n_i cell counts of Eq. 10):
// one rounding more than the exact division, ~15 cycles less. The
// fast path is hand-inlined normalization (normFrac), so the whole
// call inlines into the fill loops.
func (a Acc) MulNorm(f float64) Number {
	return normFrac(a.frac*f, a.exp)
}

// DivFloat returns the accumulated value divided by f as a normalized
// Number, in a single normalization step. f must be finite and
// non-zero, the same contract as Number.DivFloat.
func (a Acc) DivFloat(f float64) Number {
	if f == 0 || math.IsNaN(f) || math.IsInf(f, 0) { //lint:allow floatcmp same exact-zero divisor contract as Number.Div
		//lint:allow libpanic same contract as Number.Div: the recursions divide by provably positive cell counts
		panic("scale: Acc.DivFloat by zero or non-finite divisor")
	}
	return Number{frac: a.frac / f, exp: a.exp}.norm()
}

// AddMul returns n + t*f with a single normalization — the fused form
// of n.Add(t.Mul(f)) the V-recursion of Eq. 9 runs on. The body is the
// Acc Init/AddMul/Norm sequence flattened by hand so the common case
// (all operands normal, aligned within the mantissa) runs branch-lean
// and call-free inside the fill loops.
func (n Number) AddMul(t, f Number) Number {
	tf := t.frac * f.frac
	if tf == 0 { //lint:allow floatcmp frac == 0 is the canonical exact representation of Zero
		return n
	}
	te := t.exp + f.exp
	if n.frac == 0 { //lint:allow floatcmp empty base takes the product verbatim, same as Acc.addRaw
		return normFrac(tf, te)
	}
	shift := n.exp - te
	switch {
	case shift >= 0:
		if shift > 1075 {
			return n
		}
		return normFrac(n.frac+ldexpDown(tf, shift), n.exp)
	default:
		if shift < -1075 {
			return normFrac(tf, te)
		}
		return normFrac(ldexpDown(n.frac, -shift)+tf, te)
	}
}
