package core

import (
	"sync"

	"xbar/internal/scale"
)

// Fill-only lattices. Algorithm 1's bursty-class W lattices and
// Algorithm 2's D grids feed only their own fill: every read after it
// (ResultAt, the concurrency chains, logG) touches Q, or F_1 and F_2,
// alone. So a solver takes them from a shared scratch for the length
// of one fill and hands them back after it, and a filled solver keeps
// only the lattices its reads need: 16 bytes per cell with either
// algorithm, while the fill borrows 16 (Algorithm 1) or 8
// (Algorithm 2) more per cell and bursty class.
//
// The scratch is a sync.Pool per element type, so it retains nothing
// the GC does not allow: a buffer idle through two collections is
// dropped, and a burst of large fills (a forced exact N = 1024 solve)
// pins its lattices only while fills keep reusing them. There is no
// size or count constant to tune.
var (
	accScratch   scratch[scale.Acc]
	floatScratch scratch[float64]
)

// scratch is a pool of reusable lattice buffers of one element type.
// Each buffer travels in its own box, so take and give move a pointer
// and allocate nothing once the pool is warm.
type scratch[T any] struct{ pool sync.Pool }

// take returns a boxed buffer of exactly n cells with unspecified
// contents: the fill writes every cell before it reads it. A pooled
// buffer too small for n is dropped and a buffer of n cells made in
// its box, so buffers grow towards the largest fill they serve.
func (s *scratch[T]) take(n int) *[]T {
	b, _ := s.pool.Get().(*[]T)
	if b == nil {
		b = new([]T)
	}
	if cap(*b) >= n {
		*b = (*b)[:n]
	} else {
		*b = make([]T, n)
	}
	return b
}

// give hands a buffer from take back to the pool; the caller keeps no
// view of it.
func (s *scratch[T]) give(b *[]T) { s.pool.Put(b) }
