package eventq

import (
	"fmt"
	"sort"
	"testing"

	"xbar/internal/rng"
)

// TestResetReuse pins the zero-steady-state-allocation contract: a
// pre-sized queue that is filled, drained and Reset between rounds
// never allocates after construction.
func TestResetReuse(t *testing.T) {
	const n = 64
	q := New[int](n)
	s := rng.NewStream(5)
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < n; i++ {
			q.Push(s.Float64(), i)
		}
		for j := 0; j < n/2; j++ {
			q.Pop()
		}
		q.Reset()
		if q.Len() != 0 {
			t.Fatal("Reset left events behind")
		}
	})
	if allocs != 0 {
		t.Errorf("pre-sized queue allocated %.1f times per round", allocs)
	}
}

// TestNewNegativeCapacity checks New tolerates a negative hint.
func TestNewNegativeCapacity(t *testing.T) {
	q := New[int](-3)
	q.Push(1, 1)
	if at, v := q.Pop(); at != 1 || v != 1 {
		t.Fatalf("got (%v, %d)", at, v)
	}
}

// TestQueueAfterReset checks ordering stays correct when the backing
// array is reused across rounds with different contents.
func TestQueueAfterReset(t *testing.T) {
	q := New[int](4)
	s := rng.NewStream(9)
	for round := 0; round < 20; round++ {
		n := 1 + int(s.Uint64()%40)
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			want[i] = s.Float64() * 100
			q.Push(want[i], i)
		}
		sort.Float64s(want)
		for i := 0; i < n; i++ {
			at, _ := q.Pop()
			if at != want[i] {
				t.Fatalf("round %d: pop %d returned %v, want %v", round, i, at, want[i])
			}
		}
		q.Reset()
	}
}

// FuzzHeapProperty drives the queue with an arbitrary push/pop script
// and checks the two invariants that define it: every parent is at or
// before its children (the 4-ary heap property), and pops come out in
// nondecreasing time order matching a sorted reference.
func FuzzHeapProperty(f *testing.F) {
	f.Add(uint64(1), uint16(40))
	f.Add(uint64(42), uint16(7))
	f.Add(uint64(0xdead), uint16(200))
	f.Fuzz(func(t *testing.T, seed uint64, opsRaw uint16) {
		ops := int(opsRaw%512) + 1
		s := rng.NewStream(seed)
		q := New[uint64](8)
		var live []float64
		for op := 0; op < ops; op++ {
			if len(live) > 0 && s.Uint64()%3 == 0 {
				at, _ := q.Pop()
				minIdx := 0
				for i, v := range live {
					if v < live[minIdx] {
						minIdx = i
					}
				}
				if at != live[minIdx] {
					t.Fatalf("op %d: popped %v, expected minimum %v", op, at, live[minIdx])
				}
				live = append(live[:minIdx], live[minIdx+1:]...)
			} else {
				at := s.Float64() * 1000
				q.Push(at, uint64(op))
				live = append(live, at)
			}
			for i := 1; i < q.Len(); i++ {
				parent := (i - 1) / 4
				if q.items[parent].at > q.items[i].at {
					t.Fatalf("op %d: heap property violated at index %d", op, i)
				}
			}
		}
		if q.Len() != len(live) {
			t.Fatalf("length drifted: queue %d, reference %d", q.Len(), len(live))
		}
	})
}

// BenchmarkQueuePushPop measures the steady-state cost of the heap's
// push/pop pair at a simulator-typical queue length.
func BenchmarkQueuePushPop(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			q := New[int](n)
			s := rng.NewStream(1)
			clock := 0.0
			for i := 0; i < n; i++ {
				q.Push(clock+s.Float64(), i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at, v := q.Pop()
				clock = at
				q.Push(clock+s.Float64(), v)
			}
		})
	}
}
