// Package eventq provides the time-ordered event queues every
// discrete-event simulator in this repository schedules on.
//
// Queue is a 4-ary min-heap keyed by event time carrying an arbitrary
// payload — the general-purpose structure, correct for any push/pop
// pattern. The zero value is an empty, ready-to-use queue; New
// pre-sizes the backing array and Reset recycles it, so a simulator
// that runs many replications never re-allocates. Both sifts are
// hole-punching: the moved item is held in a register while the hole
// walks the tree, one write per level instead of the three a pairwise
// swap costs, and the 4-ary layout halves the tree depth of the
// binary heap for the same length.
package eventq

// Queue is a 4-ary min-heap of (time, payload) pairs. Not safe for
// concurrent use; each simulator owns its queue. The zero value is
// ready to use.
type Queue[T any] struct {
	items []item[T]
}

type item[T any] struct {
	at float64
	v  T
}

// New returns a queue whose backing array is pre-sized for capacity
// events, so steady-state operation up to that length never allocates.
func New[T any](capacity int) *Queue[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Queue[T]{items: make([]item[T], 0, capacity)}
}

// Reset empties the queue in place, releasing payload references but
// keeping the backing array for reuse.
func (q *Queue[T]) Reset() {
	clear(q.items)
	q.items = q.items[:0]
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push schedules a payload at the given time.
func (q *Queue[T]) Push(at float64, v T) {
	// Hole-punching sift-up: append a hole, walk it toward the root,
	// and write the new item exactly once at its final position.
	q.items = append(q.items, item[T]{})
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if q.items[parent].at <= at {
			break
		}
		q.items[i] = q.items[parent]
		i = parent
	}
	q.items[i] = item[T]{at: at, v: v}
}

// PeekTime returns the earliest scheduled time, with ok = false when
// the queue is empty.
func (q *Queue[T]) PeekTime() (at float64, ok bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].at, true
}

// Pop removes and returns the earliest event. It panics on an empty
// queue — popping nothing is always a simulator logic error.
func (q *Queue[T]) Pop() (at float64, v T) {
	n := len(q.items)
	if n == 0 {
		//lint:allow libpanic heap discipline invariant, same contract as container/heap
		panic("eventq: Pop on empty queue")
	}
	top := q.items[0]
	n--
	moved := q.items[n]
	var zero item[T]
	q.items[n] = zero // release payload references
	q.items = q.items[:n]
	if n > 0 {
		// Hole-punching sift-down: hoist the moved item and let the
		// hole descend through the smallest child at each level.
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if q.items[j].at < q.items[m].at {
					m = j
				}
			}
			if q.items[m].at >= moved.at {
				break
			}
			q.items[i] = q.items[m]
			i = m
		}
		q.items[i] = moved
	}
	return top.at, top.v
}
