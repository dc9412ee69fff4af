//go:build !race

package core

import "testing"

// TestReuseAllocs pins the allocation-free path: once the Q or F
// lattices and the fill scratch have grown to a switch's size,
// refilling a same-size switch allocates nothing with either
// algorithm. The race detector drops pooled scratch at random, so the
// pin holds only without it.
func TestReuseAllocs(t *testing.T) {
	sw := threeBursty(96, 80)
	s1, s2 := &Solver{}, &MVASolver{}
	for name, reuse := range map[string]func() error{
		"alg1": func() error { return s1.Reuse(sw) },
		"alg2": func() error { return s2.Reuse(sw) },
	} {
		if err := reuse(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = reuse() }); allocs != 0 {
			t.Errorf("%s: same-size Reuse allocates %v times per call, want 0", name, allocs)
		}
	}
}
