package server

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"xbar/internal/core"
)

// Algorithm names accepted by the API (with the "algorithm1" /
// "algorithm2" long forms normalized in the handlers).
const (
	alg1 = "alg1"
	alg2 = "alg2"
)

// solverEntry is one cached operating point: a filled sweep solver
// for either Algorithm 1 or Algorithm 2. Exactly one of sweep and mva
// is non-nil.
//
// A filled entry is read-only for its whole resident life: the sweep
// layers' reads are safe for concurrent use, and each revenue request
// builds its own analysis (and gradient scratch) on top. So any number
// of requests read one entry at once, with no lock.
type solverEntry struct {
	sweep *core.SweepSolver
	mva   *core.MVASweepSolver
}

// resultAt reads the sub-switch measures off the retained lattice.
func (e *solverEntry) resultAt(n1, n2 int) *core.Result {
	if e.sweep != nil {
		return e.sweep.ResultAt(n1, n2)
	}
	return e.mva.ResultAt(n1, n2)
}

// result reads the full-size measures.
func (e *solverEntry) result() *core.Result {
	if e.sweep != nil {
		return e.sweep.Result()
	}
	return e.mva.Result()
}

// cacheKey canonicalizes one operating point. Class names are
// deliberately excluded — they do not enter the numerics. The key is
// built in one buffer (on the stack for keys up to keyStack bytes), so
// a request pays a single allocation for it, the final string.
func cacheKey(alg string, sw core.Switch) string {
	var stack [keyStack]byte
	b := append(stack[:0], alg...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(sw.N1), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(sw.N2), 10)
	for _, cl := range sw.Classes {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(cl.A), 10)
		b = append(b, ':')
		// 'x' (hexadecimal) formatting is exact: two keys collide only
		// for bit-identical parameters, or for 0 and -0. Those are one
		// parameter to every solver, and json.Marshal drops a -0 beta
		// as omitempty, so a key that told them apart would not
		// survive a JSON round trip.
		b = strconv.AppendFloat(b, unsigned(cl.Alpha), 'x', -1, 64)
		b = append(b, ':')
		b = strconv.AppendFloat(b, unsigned(cl.Beta), 'x', -1, 64)
		b = append(b, ':')
		b = strconv.AppendFloat(b, unsigned(cl.Mu), 'x', -1, 64)
	}
	return string(b)
}

// unsigned maps -0 onto 0 and leaves every other value alone.
func unsigned(x float64) float64 {
	if zero(x) {
		return 0
	}
	return x
}

// keyStack is cacheKey's stack buffer size: room for three classes of
// full-precision hex parameters.
const keyStack = 256

// maxFreeSolvers bounds each recycling pool: beyond this, evicted
// lattices are dropped to the GC rather than pinned forever.
const maxFreeSolvers = 4

// solverPool recycles the retained lattices of evicted entries: the
// next miss of the same algorithm refills one in place
// (SweepSolver.Reuse) instead of allocating a fresh grid. A retained
// lattice is 16 bytes per cell with either algorithm; the lattices
// only the fill reads come from core's shared fill scratch.
type solverPool struct {
	mu       sync.Mutex
	alg1     []*core.SweepSolver
	alg2     []*core.MVASweepSolver
	recycled *atomic.Int64
}

// fill fills a lattice for the operating point, on a pooled solver
// when one is available.
func (p *solverPool) fill(alg string, sw core.Switch) (*solverEntry, error) {
	e := &solverEntry{}
	cells := (sw.N1 + 1) * (sw.N2 + 1)
	p.mu.Lock()
	switch alg {
	case alg1:
		e.sweep = takeSolver(&p.alg1, cells, p.recycled)
	case alg2:
		e.mva = takeSolver(&p.alg2, cells, p.recycled)
	default:
		p.mu.Unlock()
		return nil, fmt.Errorf("server: unknown algorithm %q", alg)
	}
	p.mu.Unlock()
	var err error
	if e.sweep != nil {
		err = e.sweep.Reuse(sw)
	} else {
		err = e.mva.Reuse(sw)
	}
	if err != nil {
		// Reuse validates before touching the lattice, so the solver
		// is still coherent; pool it again.
		p.put(e)
		return nil, err
	}
	return e, nil
}

// takeSolver hands out the pooled solver with the smallest lattice
// that holds cells, else the one with the largest lattice, so a fill
// grows a lattice only when no pooled one fits. With an empty pool it
// returns a new solver. Callers hold the pool lock.
func takeSolver[S any, P interface {
	*S
	Cells() int
}](free *[]P, cells int, recycled *atomic.Int64) P {
	pool := *free
	if len(pool) == 0 {
		return new(S)
	}
	best := 0
	for i := 1; i < len(pool); i++ {
		if fitsBetter(pool[i].Cells(), pool[best].Cells(), cells) {
			best = i
		}
	}
	s := pool[best]
	last := len(pool) - 1
	pool[best], pool[last] = pool[last], nil
	*free = pool[:last]
	recycled.Add(1)
	return s
}

// fitsBetter reports whether a lattice of c cells serves a fill of
// want cells better than one of b cells: one that holds the fill beats
// one that does not, the smaller of two that hold it wins, and the
// larger of two that do not.
func fitsBetter(c, b, want int) bool {
	if (c >= want) != (b >= want) {
		return c >= want
	}
	if c >= want {
		return c < b
	}
	return c > b
}

// put returns an evicted entry's solver to its free pool. It is the
// solver cache's release hook.
//
//lint:pooled
func (p *solverPool) put(e *solverEntry) {
	p.mu.Lock()
	switch {
	case e.sweep != nil && len(p.alg1) < maxFreeSolvers:
		p.alg1 = append(p.alg1, e.sweep)
	case e.mva != nil && len(p.alg2) < maxFreeSolvers:
		p.alg2 = append(p.alg2, e.mva)
	}
	p.mu.Unlock()
}
