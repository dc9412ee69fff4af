// Package traffic generalizes the uniform-access assumption of the
// paper (and the single-hot-output model of the companion paper [28])
// to an arbitrary traffic matrix: request (i, j) arrives with
// probability proportional to W[i][j]. Non-uniform matrices break the
// product form, so evaluation is by fabric simulation; the package
// also provides Sinkhorn-Knopp balancing — the classical iterative
// scaling that turns a positive matrix doubly stochastic — to quantify
// how much blocking is attributable to imbalance rather than to total
// load.
package traffic

import (
	"fmt"
	"math"

	"xbar/internal/eventq"
	"xbar/internal/rng"
	"xbar/internal/stats"
)

// Matrix is a non-negative N1 x N2 weight matrix; W[i][j] is the
// relative arrival intensity of requests from input i to output j.
type Matrix [][]float64

// NewUniform returns the all-ones matrix.
func NewUniform(n1, n2 int) Matrix {
	m := make(Matrix, n1)
	for i := range m {
		m[i] = make([]float64, n2)
		for j := range m[i] {
			m[i][j] = 1
		}
	}
	return m
}

// Validate checks shape and non-negativity, requiring at least one
// positive weight in every row and column (otherwise a port is dead
// and the dimensions lie).
func (m Matrix) Validate() error {
	if len(m) == 0 || len(m[0]) == 0 {
		return fmt.Errorf("traffic: empty matrix")
	}
	n2 := len(m[0])
	colSum := make([]float64, n2)
	for i, row := range m {
		if len(row) != n2 {
			return fmt.Errorf("traffic: ragged matrix at row %d", i)
		}
		rowSum := 0.0
		for j, w := range row {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("traffic: weight [%d][%d] = %v", i, j, w)
			}
			rowSum += w
			colSum[j] += w
		}
		if rowSum == 0 { //lint:allow floatcmp structural validation: exactly zero weight means the row is absent; tiny weights are legitimate load
			return fmt.Errorf("traffic: row %d has no traffic", i)
		}
	}
	for j, s := range colSum {
		if s == 0 { //lint:allow floatcmp structural validation, as for the row sums above
			return fmt.Errorf("traffic: column %d has no traffic", j)
		}
	}
	return nil
}

// Dims returns (N1, N2).
func (m Matrix) Dims() (int, int) {
	if len(m) == 0 {
		return 0, 0
	}
	return len(m), len(m[0])
}

// RowSums and ColSums return the marginal weights.
func (m Matrix) RowSums() []float64 {
	out := make([]float64, len(m))
	for i, row := range m {
		for _, w := range row {
			out[i] += w
		}
	}
	return out
}

// ColSums returns the per-column totals.
func (m Matrix) ColSums() []float64 {
	if len(m) == 0 {
		return nil
	}
	out := make([]float64, len(m[0]))
	for _, row := range m {
		for j, w := range row {
			out[j] += w
		}
	}
	return out
}

// Imbalance returns max(marginal)/mean(marginal) over rows and
// columns: 1 for perfectly balanced load.
func (m Matrix) Imbalance() float64 {
	worst := 1.0
	for _, sums := range [][]float64{m.RowSums(), m.ColSums()} {
		mean, max := 0.0, 0.0
		for _, s := range sums {
			mean += s
			if s > max {
				max = s
			}
		}
		mean /= float64(len(sums))
		if mean > 0 && max/mean > worst {
			worst = max / mean
		}
	}
	return worst
}

// Sinkhorn returns the Sinkhorn-Knopp balancing of m: alternately
// normalizing rows and columns until every marginal is within tol of
// uniform, so the returned matrix's row sums equal N2/N1-consistent
// constants (each row sums to 1, each column to N1/N2). The zero
// pattern is preserved; a matrix whose support does not admit a
// doubly stochastic scaling (e.g. a zero block too large) fails to
// converge and returns an error.
func (m Matrix) Sinkhorn(tol float64, maxIter int) (Matrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if tol <= 0 || maxIter < 1 {
		return nil, fmt.Errorf("traffic: Sinkhorn(tol=%v, maxIter=%d)", tol, maxIter)
	}
	n1, n2 := m.Dims()
	out := make(Matrix, n1)
	for i := range out {
		out[i] = append([]float64(nil), m[i]...)
	}
	rowTarget := 1.0
	colTarget := float64(n1) / float64(n2)
	for iter := 0; iter < maxIter; iter++ {
		for i := range out {
			s := 0.0
			for _, w := range out[i] {
				s += w
			}
			for j := range out[i] {
				out[i][j] *= rowTarget / s
			}
		}
		worst := 0.0
		col := out.ColSums()
		for j := range col {
			if col[j] == 0 { //lint:allow floatcmp scaling preserves exact zeros; losing all weight is structural
				return nil, fmt.Errorf("traffic: column %d lost all weight", j)
			}
			for i := range out {
				out[i][j] *= colTarget / col[j]
			}
		}
		// Convergence: row sums after the column step.
		for _, s := range out.RowSums() {
			if d := math.Abs(s - rowTarget); d > worst {
				worst = d
			}
		}
		if worst < tol {
			return out, nil
		}
	}
	return nil, fmt.Errorf("traffic: Sinkhorn did not converge in %d iterations", maxIter)
}

// SimConfig parameterizes a matrix-weighted crossbar simulation.
type SimConfig struct {
	// Lambda is the total Poisson request rate.
	Lambda float64
	// Mu is the holding-time rate.
	Mu      float64
	Seed    uint64
	Warmup  float64
	Horizon float64
	Batches int
}

// Result reports the simulation.
type Result struct {
	// Blocking is the overall request blocking (call congestion).
	Blocking stats.CI
	// Concurrency is the time-average number of connections.
	Concurrency stats.CI
	// Offered counts measured requests; Events counts processed
	// events.
	Offered, Events int64
}

type departure struct{ in, out int }

// Simulate runs the fabric under matrix-weighted arrivals with
// blocked-calls-cleared.
func Simulate(m Matrix, cfg SimConfig) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if cfg.Lambda <= 0 || cfg.Mu <= 0 {
		return nil, fmt.Errorf("traffic: lambda %v, mu %v", cfg.Lambda, cfg.Mu)
	}
	win, err := stats.NewWindow(cfg.Warmup, cfg.Horizon, cfg.Batches)
	if err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	batches := win.Batches()
	n1, n2 := m.Dims()

	// Flattened cumulative weights for route sampling by binary
	// search.
	cum := make([]float64, n1*n2)
	total := 0.0
	for i := 0; i < n1; i++ {
		for j := 0; j < n2; j++ {
			total += m[i][j]
			cum[i*n2+j] = total
		}
	}

	stream := rng.NewStream(cfg.Seed)
	busyIn := make([]bool, n1)
	busyOut := make([]bool, n2)
	connected := 0
	end, batchLen := win.End(), win.BatchLen()
	offered := make([]int64, batches)
	blocked := make([]int64, batches)
	connArea := make([]float64, batches)

	var deps eventq.Queue[departure]
	nextArr := stream.Exp(cfg.Lambda)
	now := 0.0
	var events int64
	advance := func(t float64) {
		win.Add(connArea, now, t, float64(connected))
		now = t
	}

	for {
		t := nextArr
		isDep := false
		if at, ok := deps.PeekTime(); ok && at < t {
			t, isDep = at, true
		}
		if t >= end {
			advance(end)
			break
		}
		advance(t)
		events++
		if isDep {
			_, d := deps.Pop()
			busyIn[d.in] = false
			busyOut[d.out] = false
			connected--
			continue
		}
		nextArr = now + stream.Exp(cfg.Lambda)
		b := win.Of(now)
		if b >= 0 {
			offered[b]++
		}
		// Sample (i, j) ~ W by binary search on the cumulative sums.
		u := stream.Float64() * total
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] <= u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		in, out := lo/n2, lo%n2
		if busyIn[in] || busyOut[out] {
			if b >= 0 {
				blocked[b]++
			}
			continue
		}
		busyIn[in] = true
		busyOut[out] = true
		connected++
		deps.Push(now+stream.Exp(cfg.Mu), departure{in: in, out: out})
	}

	res := &Result{Events: events}
	var ratios, connB []float64
	for b := 0; b < batches; b++ {
		res.Offered += offered[b]
		connB = append(connB, connArea[b]/batchLen)
		if offered[b] > 0 {
			ratios = append(ratios, float64(blocked[b])/float64(offered[b]))
		}
	}
	res.Blocking = stats.BatchCI(ratios, 0.95)
	res.Concurrency = stats.BatchMeans(connB, 0.95)
	return res, nil
}
