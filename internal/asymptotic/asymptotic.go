// Package asymptotic implements the large-N solver tier: a
// saddle-point / central-limit expansion of the product-form
// normalization constant G(N1, N2) with a second-order Edgeworth
// correction, turning the exact O(N1*N2*R) lattice fills into O(R)
// work per measure — and returning a computable error bound next to
// every estimate, so the dispatch layer (core.SolveAuto) can fall back
// to the exact algorithms whenever the expansion is not trustworthy.
//
// # Derivation sketch (full derivation in docs/ALGORITHMS.md)
//
// Ordering the product-form state by total occupancy s = k.A splits
// the normalization constant into a wiring factor and a traffic factor
// (the same decomposition core.SolveConvolution evaluates exactly):
//
//	G(N1, N2) = sum_s Psi(s) g(s),   Psi(s) = P(N1,s) P(N2,s),
//
// with P(n,s) = n!/(n-s)! and g(s) = [z^s] prod_r F_r(z) the
// coefficient sequence of the per-class generating functions
//
//	F_r(z) = exp(rho_r z^{a_r})                           (Poisson)
//	F_r(z) = (1 - (beta_r/mu_r) z^{a_r})^(-alpha_r/beta_r) (BPP)
//
// (the BPP form covers Pascal beta>0 inside its convergence radius and
// Bernoulli beta<0 everywhere). Tilting the count measure by z gives
// closed-form occupancy cumulants; the saddle point s* is the unique
// root of
//
//	m(z(s)) = s,   z(s) = (N1-s)(N2-s),
//
// where m is the tilted occupancy mean — the large-N limit of this
// equation is exactly the endpoint-independence fixed point
// (EndpointFixedPoint), which is therefore the zeroth-order member of
// this expansion. Around s* the summand is log-concave with curvature
//
//	1/sigma^2 = 1/v* + 1/(N1-s*) + 1/(N2-s*),
//
// v* the tilted occupancy variance, and every measure becomes a smooth
// expectation under the (Edgeworth-corrected) Gaussian occupancy law:
//
//	NB_r = G(N - a_r I)/G(N) = E[ f_r(S) ],
//	f_r(s) = P(N1-s,a_r) P(N2-s,a_r) / (P(N1,a_r) P(N2,a_r)),
//
// expanded to third order in (S - s*) with the skewness-driven mean
// shift and third central moment of the Laplace density. Concurrency
// follows from the exact Poisson identity E_r = rho_r P(N1,a_r)
// P(N2,a_r) NB_r, and for state-dependent classes from the
// conditional-count expectation E_r = E[kappa1_r(z(S))] — the same
// smooth-expectation machinery, deliberately avoiding the lattice
// recursions' diagonal chain, whose per-level errors would compound
// multiplicatively over min(N)/a_r levels.
//
// # Error bounds
//
// Every estimate carries a relative error bound assembled from the
// computable magnitudes of the first *omitted* terms: the third/fourth
// dimensionless cumulants lambda3 = |kappa3|/sigma^3 and lambda4 =
// |kappa4|/sigma^4 of the occupancy law multiplied into the measure's
// log-derivative sensitivities, a Gaussian tail term in the distance
// (in sigmas) from the saturation and empty boundaries, and the
// discreteness/normalization shift. The safety factor is calibrated in
// asymptotic_test.go against the exact solver over a battery of sizes,
// traffic mixes and load levels; the property tests there pin
// |exact - estimate| <= bound * exact on every point of the battery.
// Bounds are intentionally conservative: they blow up (BoundUnusable)
// near saturation and at vanishing blocking, which is precisely when
// the dispatch layer should pay for an exact solve.
package asymptotic

import (
	"fmt"
	"math"

	"xbar/internal/combin"
	"xbar/internal/floats"
)

// Class is one traffic class in canonical per-route form: a connection
// seizes A input and A output ports, offers per-route intensity
// Rho = alpha/mu, with burstiness parameter BetaMu = beta/mu (zero for
// Poisson, positive for Pascal/bursty, negative for Bernoulli/smooth).
type Class struct {
	A      int
	Rho    float64
	BetaMu float64
}

// BoundUnusable is the error bound reported when no finite expansion
// bound exists: the saddle sits within one route of saturation, or the
// blocking estimate vanishes so no relative bound on B is possible.
// Any sane dispatch tolerance is below it, forcing the exact tier.
const BoundUnusable = 1e12

// safety is the empirical safety factor multiplying the raw
// first-omitted-term magnitudes into the reported bound. Calibrated by
// TestBoundCalibration: the worst observed |error|/bound ratio across
// the battery stays below 1/2 at this setting.
const safety = 8.0

// SaddleInfo reports the saddle-point diagnostics of an estimate.
type SaddleInfo struct {
	// S is the saddle occupancy s*: the most probable number of busy
	// input (equivalently output) ports.
	S float64
	// Z is the tilt z* = (N1-s*)(N2-s*).
	Z float64
	// Sigma is the occupancy standard deviation under the Laplace
	// (Gaussian) approximation.
	Sigma float64
	// Skewness is the dimensionless third cumulant kappa3/sigma^3 of
	// the occupancy law (signed).
	Skewness float64
	// SaturationSigmas is (min(N1,N2) - s*)/sigma: how many standard
	// deviations the operating point sits from saturation. Small values
	// mean the Gaussian picture is breaking down.
	SaturationSigmas float64
	// InputUtilization and OutputUtilization are s*/N1 and s*/N2.
	InputUtilization, OutputUtilization float64
}

// Estimate is the asymptotic tier's answer: the measures of
// core.Result plus per-class relative error bounds and the saddle
// diagnostics.
type Estimate struct {
	N1, N2 int
	// NonBlocking, Blocking and Concurrency mirror core.Result, in
	// class order, clamped to their probability ranges.
	NonBlocking []float64
	Blocking    []float64
	Concurrency []float64
	// Bound[r] bounds the relative error of NonBlocking[r],
	// Blocking[r] and Concurrency[r] against the exact solution
	// (BoundUnusable when no finite bound exists).
	Bound []float64
	// LogG approximates ln G(N1,N2); LogGErr bounds its absolute error.
	LogG, LogGErr float64
	// Saddle holds the top-level saddle diagnostics.
	Saddle SaddleInfo
}

// MaxBound returns the largest per-class bound.
func (e *Estimate) MaxBound() float64 {
	m := 0.0
	for _, b := range e.Bound {
		m = math.Max(m, b)
	}
	return m
}

// cums holds the tilted occupancy cumulants at one tilt z: mean,
// variance, third and fourth cumulants of sum_r a_r K_r where K_r is
// the class-r connection count under the z-tilted product measure.
type cums struct {
	m, v, c3, c4 float64
}

// solver carries one Solve invocation's state: the model and the
// per-sub-switch saddle cache the bursty concurrency chains share.
type solver struct {
	n1, n2  int
	classes []Class
	// saddles caches sub-switch saddles by first dimension; every
	// sub-switch visited here shrinks both dimensions by the same
	// amount, so m1 determines m2.
	saddles map[int]*saddle
}

// saddle is the saddle-point data of one (sub-)switch: the tilt, the
// occupancy cumulants there, and the Laplace/Edgeworth coefficients of
// the occupancy density.
type saddle struct {
	m1, m2 int
	s, z   float64
	c      cums
	// sigma2 is the occupancy variance of the full (wiring-corrected)
	// measure; gamma and phi4 are the third and fourth derivatives of
	// its log-density at s*; lam3/lam4 the dimensionless Edgeworth
	// magnitudes; dSat/dZero the boundary distances in sigmas.
	sigma2, sigma float64
	gamma, phi4   float64
	lam3, lam4    float64
	dSat, dZero   float64
}

// cumulants evaluates the tilted occupancy cumulants at tilt z. ok is
// false when a Pascal class diverges there (tilt at or beyond its
// convergence radius 1/(beta/mu)) — the saddle search treats that as
// an infinite mean and moves toward smaller tilts.
func (sv *solver) cumulants(z float64) (cums, bool) {
	var c cums
	for i := range sv.classes {
		cl := &sv.classes[i]
		a := float64(cl.A)
		x := math.Pow(z, a)
		if floats.Zero(cl.BetaMu) {
			// Poisson: all count cumulants equal rho z^a.
			lam := cl.Rho * x
			c.m += a * lam
			c.v += a * a * lam
			c.c3 += a * a * a * lam
			c.c4 += a * a * a * a * lam
			continue
		}
		t := cl.BetaMu * x
		if t >= 1-1e-12 {
			return cums{}, false
		}
		// Negative binomial (t>0) / binomial (t<0) count cumulants in
		// the unified BPP form, cc = alpha/beta.
		cc := cl.Rho / cl.BetaMu
		d := 1 - t
		k1 := cc * t / d
		k2 := k1 / d
		k3 := k2 * (1 + t) / d
		k4 := k2 * (1 + 4*t + t*t) / (d * d)
		c.m += a * k1
		c.v += a * a * k2
		c.c3 += a * a * a * k3
		c.c4 += a * a * a * a * k4
	}
	if math.IsNaN(c.m) || math.IsInf(c.m, 0) {
		return cums{}, false
	}
	return c, true
}

// saddleAt solves the saddle equation m(z(s)) = s for the sub-switch
// (m1, m2) and assembles the Laplace/Edgeworth data. warm is a
// starting point (the adjacent level's saddle in a concurrency chain);
// outside (0, min) it is ignored. h(s) = m(z(s)) - s is strictly
// decreasing from h(0) > 0 to h(min) < 0, so the root is unique and
// bracketed; Newton steps are safeguarded by the shrinking bracket.
func (sv *solver) saddleAt(m1, m2 int, warm float64) *saddle {
	if sd, ok := sv.saddles[m1]; ok {
		return sd
	}
	fm1, fm2 := float64(m1), float64(m2)
	minN := math.Min(fm1, fm2)
	lo, hi := 0.0, minN
	s := warm
	if !(s > lo && s < hi) {
		s = minN / 2
	}
	for iter := 0; iter < 300; iter++ {
		z := (fm1 - s) * (fm2 - s)
		c, ok := sv.cumulants(z)
		if !ok {
			// Divergent tilt: the mean is effectively +inf, the saddle
			// lies at larger s (smaller z).
			lo = s
			s = (lo + hi) / 2
			continue
		}
		h := c.m - s
		if h > 0 {
			lo = s
		} else {
			hi = s
		}
		if math.Abs(h) <= 1e-13*(1+s) || hi-lo <= 1e-15*(1+hi) {
			break
		}
		// h'(s) = -(v/z)((m1-s)+(m2-s)) - 1 < 0.
		hp := -c.v/z*(fm1-s+fm2-s) - 1
		next := s - h/hp
		if !(next > lo && next < hi) {
			next = (lo + hi) / 2
		}
		s = next
	}
	// Final evaluation at the converged s. Divergence is only possible
	// below the root, so halving toward hi always restores convergence.
	var c cums
	for i := 0; ; i++ {
		var ok bool
		c, ok = sv.cumulants((fm1 - s) * (fm2 - s))
		if ok || i >= 200 {
			break
		}
		s = (s + hi) / 2
	}
	z := (fm1 - s) * (fm2 - s)
	x1, x2 := fm1-s, fm2-s
	sigma2 := 1 / (1/c.v + 1/x1 + 1/x2)
	sigma := math.Sqrt(sigma2)
	v3 := c.v * c.v * c.v
	gamma := c.c3/v3 - 1/(x1*x1) - 1/(x2*x2)
	phi4 := c.c4/(v3*c.v) - 3*c.c3*c.c3/(v3*c.v*c.v) - 2*(1/(x1*x1*x1)+1/(x2*x2*x2))
	sd := &saddle{
		m1: m1, m2: m2, s: s, z: z, c: c,
		sigma2: sigma2, sigma: sigma,
		gamma: gamma, phi4: phi4,
		lam3:  math.Abs(gamma) * sigma2 * sigma,
		lam4:  math.Abs(phi4) * sigma2 * sigma2,
		dSat:  (minN - s) / sigma,
		dZero: s / sigma,
	}
	sv.saddles[m1] = sd
	return sd
}

// expectF estimates the class non-blocking probability at this saddle,
// NB = E[f_a(S)] with f_a(s) = P(m1-s,a)P(m2-s,a)/(P(m1,a)P(m2,a))
// extended to real s, together with a relative error bound. a > min
// dims is the exact boundary case NB = 0.
func (sd *saddle) expectF(a int) (nb, bound float64) {
	if a > min(sd.m1, sd.m2) {
		return 0, 0
	}
	// log f and its first three derivatives at s*: f = exp(L),
	// L(s) = sum_i ln(m1-s-i) + ln(m2-s-i) - ln(m1-i) - ln(m2-i).
	var lf, l1, l2, l3 float64
	for i := 0; i < a; i++ {
		x1 := float64(sd.m1-i) - sd.s
		x2 := float64(sd.m2-i) - sd.s
		if x1 <= 0 || x2 <= 0 {
			// Saddle within a of saturation: f changes sign inside one
			// sigma, the smooth expansion cannot bound anything.
			return 0, BoundUnusable
		}
		lf += math.Log(x1) + math.Log(x2) - math.Log(float64(sd.m1-i)) - math.Log(float64(sd.m2-i))
		u, w := 1/x1, 1/x2
		l1 -= u + w
		l2 -= u*u + w*w
		l3 -= 2 * (u*u*u + w*w*w)
	}
	r1 := l1
	r2 := l1*l1 + l2
	r3 := l1*l1*l1 + 3*l1*l2 + l3
	s2 := sd.sigma2
	// Edgeworth moments of S - s*: mean shift delta from the skewness,
	// variance sigma^2, third central moment kappa3 = gamma sigma^6.
	delta := sd.gamma * s2 * s2 / 2
	k3 := sd.gamma * s2 * s2 * s2
	corr := r1*delta + 0.5*r2*s2 + r3*k3/6
	// Resummed in log space: equal to f0 (1 + corr) through the
	// included orders, but exact for the Gaussian integral of the
	// linear log-derivative term, which keeps small NB estimates sane
	// deep toward saturation.
	nb = math.Exp(lf + corr)
	// Bound: first omitted terms. sf1..sf3 are the sensitivity scales
	// |f^(k)|/f sigma^k of the included orders; the omitted error is
	// O(lambda * sf) from the next cumulant corrections, O(sf2^2) from
	// the fourth f-derivative, plus boundary tails and the
	// discreteness/normalization shift of the saddle itself.
	sf1 := math.Abs(r1) * sd.sigma
	sf2 := 0.5 * math.Abs(r2) * s2
	sf3 := math.Abs(r3) * s2 * sd.sigma / 6
	sf := sf1 + sf2 + sf3
	edge := sd.lam3*sd.lam3 + sd.lam4
	tail := (math.Exp(-sd.dSat*sd.dSat/2) + math.Exp(-sd.dZero*sd.dZero/2)) * (1 + sf)
	shift := math.Abs(r1) * s2 * (0.5/(float64(sd.m1)-sd.s) + 0.5/(float64(sd.m2)-sd.s) + math.Abs(sd.c.c3)/(2*sd.c.v*sd.c.v))
	bound = safety * (edge*sf + sf2*sf2 + tail + shift)
	return nb, math.Min(bound, BoundUnusable)
}

// poissonE applies the exact Poisson concurrency identity
// E = rho P(N1,a) P(N2,a) NB, in logs so large route counts cannot
// overflow the intermediate permutation product. The relative bound is
// the NB bound: the identity itself is exact.
func (sv *solver) poissonE(c Class, nb float64) float64 {
	if nb <= 0 {
		return 0
	}
	lp := combin.LogPerm(sv.n1, c.A) + combin.LogPerm(sv.n2, c.A)
	return math.Exp(math.Log(c.Rho) + lp + math.Log(nb))
}

// classCums returns class cl's tilted count cumulants at tilt z
// (state-dependent classes only; the caller guards Poisson).
func classCums(cl Class, z float64) (k1, k2, k3, k4 float64) {
	t := cl.BetaMu * math.Pow(z, float64(cl.A))
	cc := cl.Rho / cl.BetaMu
	d := 1 - t
	k1 = cc * t / d
	k2 = k1 / d
	k3 = k2 * (1 + t) / d
	k4 = k2 * (1 + 4*t + t*t) / (d * d)
	return
}

// burstyE estimates E_r for a state-dependent class as the smooth
// conditional-count expectation: given total occupancy S = s, the
// class counts follow the traffic-only conditional law, whose class-r
// mean is kappa1_r at the tilt z(s) solving m(z) = s (local CLT
// conditioning). So
//
//	E_r = E[ phi(S) ],   phi(s) = kappa1_r(z(s)),
//
// expanded around s* exactly like expectF expands f, with
// phi^(k) obtained from the cumulant chain d/dlnz kappa_k = a kappa_{k+1}
// and dlnz/ds = 1/v. Unlike the exact lattice recursion's diagonal
// chain — whose per-level errors compound multiplicatively over
// min(N)/a levels — this is a single smooth expectation with the same
// error structure as NB.
func (sv *solver) burstyE(top *saddle, cl Class) (e, bound float64) {
	a := float64(cl.A)
	k1, k2, k3, k4 := classCums(cl, top.z)
	v := top.c.v
	c3, c4 := top.c.c3, top.c.c4
	v2 := v * v
	v3 := v2 * v
	phi0 := k1
	phi1 := a * k2 / v
	phi2 := (a*a*k3*v - a*k2*c3) / v3
	phi3 := a*a*a*k4/v3 - 3*a*a*k3*c3/(v3*v) - a*k2*c4/(v3*v) + 3*a*k2*c3*c3/(v3*v2)
	s2 := top.sigma2
	delta := top.gamma * s2 * s2 / 2
	kap3 := top.gamma * s2 * s2 * s2
	e = phi0 + phi1*delta + 0.5*phi2*s2 + phi3*kap3/6
	if !(phi0 > 0) || !(e > 0) {
		return math.Max(e, 0), BoundUnusable
	}
	// Relative sensitivities of the included orders, and the bound from
	// the first omitted terms — same assembly as expectF, plus the
	// conditioning error of replacing E[K_r | S] by the tilted mean
	// (third-cumulant over variance scale).
	q1 := math.Abs(phi1) * top.sigma / phi0
	q2 := 0.5 * math.Abs(phi2) * s2 / phi0
	q3 := math.Abs(phi3) * s2 * top.sigma / (6 * phi0)
	edge := top.lam3*top.lam3 + top.lam4
	tail := (math.Exp(-top.dSat*top.dSat/2) + math.Exp(-top.dZero*top.dZero/2)) * (1 + q1 + q2)
	x1 := float64(top.m1) - top.s
	x2 := float64(top.m2) - top.s
	shift := q1 / top.sigma * s2 * (0.5/x1 + 0.5/x2 + math.Abs(c3)/(2*v2))
	// Conditioning error: E[K_r | S] deviates from the tilted mean by
	// the skew shift of the two-component split (class r vs the rest).
	// It vanishes when class r is alone (conditioning is then exact:
	// K = S/a) and when both components are symmetric.
	cond := 0.0
	if vx, vy := a*a*k2, v-a*a*k2; vy > 1e-12*v {
		c3x := a * a * a * k3
		c3y := c3 - c3x
		tau2 := vx * vy / v
		cond = math.Abs(tau2*tau2*(c3x/(vx*vx*vx)-c3y/(vy*vy*vy))) / (2 * a * k1)
	}
	bound = safety * (edge*(q1+q2+q3) + q2*q2 + q3 + tail + shift + cond)
	return e, math.Min(bound, BoundUnusable)
}

// Solve evaluates the asymptotic tier for an N1 x N2 switch carrying
// the given classes (canonical per-route form, as core.Switch stores
// them). The cost is O(R) for Poisson-only mixes and O(R * min(N)/a)
// saddle refinements when bursty classes need their concurrency
// chains — no lattice is allocated or filled.
func Solve(n1, n2 int, classes []Class) (*Estimate, error) {
	if n1 < 1 || n2 < 1 {
		return nil, fmt.Errorf("asymptotic: switch dimensions %dx%d, must be >= 1x1", n1, n2)
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("asymptotic: no traffic classes")
	}
	for i, c := range classes {
		if c.A < 1 {
			return nil, fmt.Errorf("asymptotic: class %d: a = %d, must be >= 1", i, c.A)
		}
		if !(c.Rho > 0) || math.IsInf(c.Rho, 0) {
			return nil, fmt.Errorf("asymptotic: class %d: rho = %v, must be positive and finite", i, c.Rho)
		}
		if math.IsNaN(c.BetaMu) || c.BetaMu >= 1 {
			return nil, fmt.Errorf("asymptotic: class %d: beta/mu = %v, must be < 1", i, c.BetaMu)
		}
	}
	sv := &solver{n1: n1, n2: n2, classes: classes, saddles: make(map[int]*saddle)}
	top := sv.saddleAt(n1, n2, 0)
	est := &Estimate{
		N1: n1, N2: n2,
		NonBlocking: make([]float64, len(classes)),
		Blocking:    make([]float64, len(classes)),
		Concurrency: make([]float64, len(classes)),
		Bound:       make([]float64, len(classes)),
		Saddle: SaddleInfo{
			S: top.s, Z: top.z, Sigma: top.sigma,
			Skewness:          top.gamma * top.sigma2 * top.sigma,
			SaturationSigmas:  top.dSat,
			InputUtilization:  top.s / float64(n1),
			OutputUtilization: top.s / float64(n2),
		},
	}
	for i, c := range classes {
		nb, nbB := top.expectF(c.A)
		var e, eB float64
		if floats.Zero(c.BetaMu) {
			e, eB = sv.poissonE(c, nb), nbB
		} else {
			e, eB = sv.burstyE(top, c)
		}
		if math.IsNaN(nb) || math.IsInf(nb, 0) || math.IsNaN(e) || math.IsInf(e, 0) {
			return nil, fmt.Errorf("asymptotic: class %d: measure overflow (a=%d at %dx%d); use the exact tier", i, c.A, n1, n2)
		}
		nb = math.Min(math.Max(nb, 0), 1)
		est.NonBlocking[i] = nb
		est.Blocking[i] = 1 - nb
		est.Concurrency[i] = e
		b := math.Max(nbB, eB)
		if blocking := 1 - nb; blocking > 0 {
			// The dispatch tolerance is quoted on blocking, the small
			// side of the probability: scale the NB bound across.
			b = math.Max(b, nbB*nb/blocking)
		} else {
			b = BoundUnusable
		}
		est.Bound[i] = math.Min(b, BoundUnusable)
	}
	// ln G by Laplace: wiring factor at s*, traffic factor at z*, and
	// the curvature ratio of the corrected vs tilted density.
	var sumLogF float64
	for _, c := range classes {
		x := math.Pow(top.z, float64(c.A))
		if floats.Zero(c.BetaMu) {
			sumLogF += c.Rho * x
			continue
		}
		sumLogF -= c.Rho / c.BetaMu * math.Log1p(-c.BetaMu*x)
	}
	lg1, _ := math.Lgamma(float64(n1) + 1)
	lg2, _ := math.Lgamma(float64(n2) + 1)
	lr1, _ := math.Lgamma(float64(n1) - top.s + 1)
	lr2, _ := math.Lgamma(float64(n2) - top.s + 1)
	est.LogG = lg1 - lr1 + lg2 - lr2 + sumLogF - top.s*math.Log(top.z) + 0.5*math.Log(top.sigma2/top.c.v)
	tail0 := math.Exp(-top.dSat*top.dSat/2) + math.Exp(-top.dZero*top.dZero/2)
	est.LogGErr = safety * (top.lam3*top.lam3 + top.lam4 + tail0)
	if math.IsNaN(est.LogG) || math.IsInf(est.LogG, 0) {
		return nil, fmt.Errorf("asymptotic: ln G overflow at %dx%d", n1, n2)
	}
	return est, nil
}
