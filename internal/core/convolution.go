package core

import (
	"xbar/internal/scale"
)

// SolveConvolution evaluates the performance measures by convolving the
// per-class factors over the total-occupancy axis:
//
//	g(s) = sum_{k : k.A = s} prod_r Phi_r(k_r),
//	G(N) = sum_s Psi(s) g(s),   Psi(s) = P(N1,s) P(N2,s).
//
// Its cost is O(R * S^2) with S = min(N1,N2) — polynomial where
// SolveDirect is exponential in R — and it additionally produces the
// occupancy distribution P(k.A = s). It is the second independent
// cross-check for the paper's recursive algorithms, in the spirit of
// the Kaufman–Roberts occupancy recursion for multirate links.
func SolveConvolution(sw Switch) (*Result, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	birth := make([]RateFunc, len(sw.Classes))
	death := make([]RateFunc, len(sw.Classes))
	for i, c := range sw.Classes {
		c := c
		birth[i] = c.Rate
		death[i] = func(k int) float64 { return float64(k) * c.Mu }
	}
	phi, err := phiTables(sw, birth, death)
	if err != nil {
		return nil, err
	}

	s := sw.MinN()
	psi := psiTableInto(nil, sw)

	// Full convolution across every class. The result must survive the
	// per-class marginal loop below, so it gets its own scratch pair;
	// the per-class gRest convolutions share a second pair across
	// classes instead of allocating two vectors per class.
	var gBuf, restBuf convScratch
	g := convolveAll(sw, phi, -1, s, &gBuf)

	gn := scale.Zero
	for occ := 0; occ <= s; occ++ {
		gn = gn.Add(psi[occ].Mul(g[occ]))
	}

	res := newResult(sw, "convolution")
	res.LogG = gn.Log()
	res.Occupancy = make([]float64, s+1)
	res.ClassMarginals = make([][]float64, len(sw.Classes))
	for occ := 0; occ <= s; occ++ {
		res.Occupancy[occ] = psi[occ].Mul(g[occ]).Ratio(gn)
	}

	var psiSub, marg []scale.Number
	for r, c := range sw.Classes {
		// Non-blocking probability from the sub-switch normalization:
		// G(N - a_r I) reuses the same g(s) (Phi does not depend on N)
		// with the sub-switch Psi and occupancy bound.
		if c.A > s {
			res.NonBlocking[r] = 0
			res.ClassMarginals[r] = []float64{1} // k_r is identically 0
			continue
		}
		sub := sw.Sub(c.A)
		psiSub = psiTableInto(psiSub, sub)
		gSub := scale.Zero
		for occ := 0; occ <= sub.MinN(); occ++ {
			gSub = gSub.Add(psiSub[occ].Mul(g[occ]))
		}
		res.NonBlocking[r] = gSub.Ratio(gn)

		// Full class marginal: P(k_r = j) ~ Phi_r(j) sum_s Psi(s)
		// gRest(s - j a_r), with gRest the convolution excluding class
		// r; concurrency is its mean.
		gRest := convolveAll(sw, phi, r, s, &restBuf)
		marg = grow(marg, sw.maxCount(r)+1)
		for j := 0; j <= sw.maxCount(r); j++ {
			acc := scale.Zero
			for occ := j * c.A; occ <= s; occ++ {
				rest := gRest[occ-j*c.A]
				if rest.IsZero() {
					continue
				}
				acc = acc.Add(psi[occ].Mul(rest))
			}
			marg[j] = phi[r][j].Mul(acc)
		}
		pm := make([]float64, len(marg))
		mean := 0.0
		for j, v := range marg {
			pm[j] = v.Ratio(gn)
			mean += float64(j) * pm[j]
		}
		res.ClassMarginals[r] = pm
		res.Concurrency[r] = mean
	}
	res.finish()
	return res, nil
}

// convScratch is the ping-pong buffer pair one chain of convolveClass
// folds alternates between, so a convolution of any class count costs
// at most two vector allocations per solve instead of one per class.
type convScratch struct{ a, b []scale.Number }

// convolveAll convolves the Phi weight vectors of every class except
// skip (pass skip = -1 to include all) on the occupancy axis 0..s. The
// returned vector aliases one of buf's slices and stays valid until
// the next convolveAll call with the same buf.
func convolveAll(sw Switch, phi [][]scale.Number, skip, s int, buf *convScratch) []scale.Number {
	buf.a = grow(buf.a, s+1)
	g := buf.a
	clear(g)
	g[0] = scale.One
	buf.b = grow(buf.b, s+1)
	out := buf.b
	for r := range sw.Classes {
		if r == skip {
			continue
		}
		convolveClass(out, g, phi[r], sw.Classes[r].A, s)
		g, out = out, g
	}
	return g
}

// convolveClass folds one class's weights w[j] (occupying j*a units)
// into the running occupancy vector g, writing the result over out.
func convolveClass(out, g, w []scale.Number, a, s int) {
	clear(out)
	for occ := 0; occ <= s; occ++ {
		if g[occ].IsZero() {
			continue
		}
		for j := 0; j < len(w) && occ+j*a <= s; j++ {
			if w[j].IsZero() {
				continue
			}
			out[occ+j*a] = out[occ+j*a].Add(g[occ].Mul(w[j]))
		}
	}
}

// grow returns buf resized to n elements, reallocating only when the
// capacity is insufficient; contents are unspecified.
func grow(buf []scale.Number, n int) []scale.Number {
	if cap(buf) < n {
		return make([]scale.Number, n)
	}
	return buf[:n]
}
