package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func TestRingDeterministicAcrossOrder(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"}, 64)
	b := NewRing([]string{"n3", "n1", "n2"}, 64)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("alg1|%dx%d|1:0x1p-3:0x0p+00:0x1p+00", i, i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %q: owner %q vs %q under permuted membership", key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestRingOwnerIsMember(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e"}
	r := NewRing(nodes, 16)
	member := make(map[string]bool)
	for _, n := range nodes {
		member[n] = true
	}
	for i := 0; i < 500; i++ {
		if o := r.Owner(fmt.Sprintf("key-%d", i)); !member[o] {
			t.Fatalf("owner %q is not a member", o)
		}
	}
}

func TestRingBalance(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	r := NewRing(nodes, 128)
	counts := make(map[string]int)
	const keys = 30000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("model|%d", i))]++
	}
	// With 128 vnodes per member the load imbalance should stay well
	// inside 2x of fair share either way.
	fair := keys / len(nodes)
	for _, n := range nodes {
		if counts[n] < fair/2 || counts[n] > fair*2 {
			t.Errorf("node %s owns %d of %d keys (fair share %d): ring too unbalanced", n, counts[n], keys, fair)
		}
	}
}

func TestRingSingleNode(t *testing.T) {
	r := NewRing([]string{"solo"}, 4)
	if o := r.Owner("anything"); o != "solo" {
		t.Fatalf("owner %q, want solo", o)
	}
}

func TestRingDuplicateMembersCollapse(t *testing.T) {
	a := NewRing([]string{"x", "y", "x"}, 8)
	b := NewRing([]string{"x", "y"}, 8)
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) {
		t.Fatalf("nodes %v vs %v", a.Nodes(), b.Nodes())
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("duplicate membership changed ownership of %q", k)
		}
	}
}

func TestRingMoreVNodesSmoothsBalance(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4"}
	spread := func(vnodes int) int {
		r := NewRing(nodes, vnodes)
		counts := make(map[string]int)
		for i := 0; i < 20000; i++ {
			counts[r.Owner(fmt.Sprintf("key-%d", i))]++
		}
		lo, hi := 1<<30, 0
		for _, n := range nodes {
			lo, hi = min(lo, counts[n]), max(hi, counts[n])
		}
		return hi - lo
	}
	if s1, s256 := spread(1), spread(256); s256 >= s1 {
		t.Errorf("spread with 256 vnodes (%d) not tighter than with 1 (%d)", s256, s1)
	}
}
