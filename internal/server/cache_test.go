package server

import (
	"context"
	"math"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"xbar/internal/rng"
)

// sieveCache is a cache[string] whose fills return their key and whose
// hook records the order in which values are evicted.
type sieveCache struct {
	*cache[string]
	victims []string // written by the hook, which runs on the test goroutine
}

func newSieveCache(maxEntries int) *sieveCache {
	sc := &sieveCache{}
	sc.cache = newCache(maxEntries, func(v string) { sc.victims = append(sc.victims, v) }, &cacheStats{})
	return sc
}

// touch gets key, filling it with its own name on a miss, and releases
// it at once. It reports whether the get was served from the cache.
func (sc *sieveCache) touch(t testing.TB, key string) bool {
	h, cached, err := sc.get(context.Background(), key, func() (string, error) { return key, nil })
	if err != nil || h.v != key {
		t.Fatalf("get(%q) = (%v, %v)", key, h, err)
	}
	sc.release(h)
	return cached
}

// resident lists the resident keys, newest insert first.
func (sc *sieveCache) resident() []string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var keys []string
	for el := sc.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*handle[string]).key)
	}
	return keys
}

// visited reports key's visited bit.
func (sc *sieveCache) visited(key string) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.items[key].visited
}

// check verifies the cache's invariants: at most max resident values,
// every indexed handle either resident at its own element or in
// flight, and the hand nil or on a resident element. If want is not
// nil, the resident keys must be exactly want, newest first.
func (sc *sieveCache) check(t *testing.T, want []string) {
	t.Helper()
	if want != nil {
		if got := sc.resident(); !slices.Equal(got, want) {
			t.Errorf("resident %v, want %v", got, want)
		}
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if n := sc.ll.Len(); n > sc.max {
		t.Errorf("%d resident values, max %d", n, sc.max)
	}
	onList := map[string]bool{}
	handOnList := sc.hand == nil
	for el := sc.ll.Front(); el != nil; el = el.Next() {
		h := el.Value.(*handle[string])
		onList[h.key] = true
		if h.el != el {
			t.Errorf("%q: handle does not point at its element", h.key)
		}
		if sc.items[h.key] != h {
			t.Errorf("%q resident but not indexed", h.key)
		}
		handOnList = handOnList || el == sc.hand
	}
	for k, h := range sc.items {
		if h.el == nil {
			select {
			case <-h.done:
				t.Errorf("%q indexed but neither resident nor in flight", k)
			default:
			}
		} else if !onList[k] {
			t.Errorf("%q indexed with a stale element", k)
		}
	}
	if !handOnList {
		t.Error("hand points at an element no longer in the list")
	}
}

// TestCacheSieve pins the SIEVE policy of cache[V]: hits set a bit
// instead of reordering, the hand clears bits as it passes, resumes
// where it stopped, and never points at a removed element.
func TestCacheSieve(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		max  int
		run  func(t *testing.T, sc *sieveCache)
	}{
		{"hit does not reorder", 3, func(t *testing.T, sc *sieveCache) {
			for _, k := range []string{"a", "b", "c", "a", "b"} {
				sc.touch(t, k)
			}
			sc.check(t, []string{"c", "b", "a"})
			if !sc.visited("a") || !sc.visited("b") || sc.visited("c") {
				t.Errorf("visited a %v b %v c %v, want true true false", sc.visited("a"), sc.visited("b"), sc.visited("c"))
			}
		}},
		{"visited survives one pass", 3, func(t *testing.T, sc *sieveCache) {
			for _, k := range []string{"a", "b", "c", "a", "d"} {
				sc.touch(t, k)
			}
			// The hand starts at the oldest value, "a": visited, so it
			// survives with its bit cleared and "b" goes instead.
			sc.check(t, []string{"d", "c", "a"})
			if sc.visited("a") {
				t.Error("the hand passed a without clearing its bit")
			}
			if !slices.Equal(sc.victims, []string{"b"}) {
				t.Errorf("victims %v, want [b]", sc.victims)
			}
		}},
		{"hand resumes where it stopped", 3, func(t *testing.T, sc *sieveCache) {
			// After "b" goes, the hand rests on "c". Restarting at the
			// tail would evict "a", unvisited since the first pass.
			for _, k := range []string{"a", "b", "c", "a", "d", "e", "f"} {
				sc.touch(t, k)
			}
			if want := []string{"b", "c", "d"}; !slices.Equal(sc.victims, want) {
				t.Errorf("victims %v, want %v", sc.victims, want)
			}
			sc.check(t, []string{"f", "e", "a"})
			// From "e" the hand clears "e" and "f" and reaches the
			// newest value, "g", unvisited: it goes. Past the front the
			// hand wraps to the back, where "a" goes next.
			sc.touch(t, "e")
			sc.touch(t, "f")
			sc.touch(t, "g")
			sc.touch(t, "h")
			if want := []string{"b", "c", "d", "g", "a"}; !slices.Equal(sc.victims, want) {
				t.Errorf("victims %v, want %v", sc.victims, want)
			}
			sc.check(t, []string{"h", "f", "e"})
		}},
		{"joining a flight marks visited", 1, func(t *testing.T, sc *sieveCache) {
			entered, release := make(chan struct{}), make(chan struct{})
			leader, waiter := make(chan *handle[string], 1), make(chan *handle[string], 1)
			fill := func() (string, error) { close(entered); <-release; return "k", nil }
			go func() {
				h, _, _ := sc.get(context.Background(), "k", fill)
				leader <- h
			}()
			<-entered
			go func() {
				h, _, _ := sc.get(context.Background(), "k", nil)
				waiter <- h
			}()
			for sc.stats.shared.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			sc.check(t, []string{}) // "k" indexed, in flight, not resident
			close(release)
			l, w := <-leader, <-waiter
			if l == nil || l != w {
				t.Fatalf("leader %v, waiter %v: want one shared handle", l, w)
			}
			sc.release(l)
			sc.release(w)
			if !sc.visited("k") {
				t.Error("joined flight completed unvisited")
			}
			// In a 1-entry cache the hand spares "k" once.
			sc.touch(t, "x")
			sc.check(t, []string{"k"})
			sc.touch(t, "y")
			sc.check(t, []string{"y"})
			if want := []string{"x", "k"}; !slices.Equal(sc.victims, want) {
				t.Errorf("victims %v, want %v", sc.victims, want)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			sc := newSieveCache(c.max)
			c.run(t, sc)
			sc.check(t, nil)
		})
	}
	for _, max := range []int{1, 3} {
		t.Run("churn max "+strconv.Itoa(max), func(t *testing.T) {
			t.Parallel()
			sc := newSieveCache(max)
			st := rng.NewStream(uint64(max))
			for i := 0; i < 2000; i++ {
				sc.touch(t, strconv.Itoa(st.Intn(2*max+1)))
				sc.check(t, nil)
			}
			if sc.stats.hits.Load() == 0 || sc.stats.evictions.Load() == 0 {
				t.Errorf("hits %d evictions %d: the churn exercised neither", sc.stats.hits.Load(), sc.stats.evictions.Load())
			}
		})
	}
}

// TestCacheZipfHitRatio replays miss-fill's key mix through xbard's
// default 64-entry cache: Zipf(0.9) popularity over 1 024 models, each
// request Algorithm 1 with probability 0.6 and Algorithm 2 otherwise,
// starting from the 64 most popular Algorithm 1 keys. LRU keeps about
// 0.29 of these gets; SIEVE about 0.42. A uniform stream over 96 keys,
// the scenario cache's shape in mixed-tiers, cannot be helped by any
// policy but must not be hurt: it stays at 64/96.
func TestCacheZipfHitRatio(t *testing.T) {
	t.Parallel()
	const (
		entries = 64
		models  = 1024
		gets    = 200000
	)
	replay := func(prefill []string, draw func() string) float64 {
		sc := newSieveCache(entries)
		for _, k := range prefill {
			sc.touch(t, k)
		}
		hits := 0
		for i := 0; i < gets; i++ {
			if sc.touch(t, draw()) {
				hits++
			}
		}
		sc.check(t, nil)
		return float64(hits) / gets
	}

	var keys [2][models]string
	for m := range keys[0] {
		keys[0][m], keys[1][m] = "alg1/"+strconv.Itoa(m), "alg2/"+strconv.Itoa(m)
	}
	cum := make([]float64, models) // cumulative Zipf(0.9) weights by rank
	total := 0.0
	for k := range cum {
		total += math.Pow(float64(k+1), -0.9)
		cum[k] = total
	}
	st := rng.NewStream(11)
	zipf := replay(keys[0][:entries], func() string {
		rank := min(sort.SearchFloat64s(cum, st.Float64()*total), models-1)
		alg := 0
		if st.Float64() >= 0.6 {
			alg = 1
		}
		return keys[alg][rank]
	})
	if zipf < 0.38 {
		t.Errorf("Zipf(0.9) hit ratio %.4f, want at least 0.38", zipf)
	}

	uniform := replay(keys[0][:entries], func() string { return keys[0][st.Intn(96)] })
	if want := float64(entries) / 96; math.Abs(uniform-want) > 0.01 {
		t.Errorf("uniform hit ratio %.4f, want %.4f ± 0.01", uniform, want)
	}
	t.Logf("hit ratio: Zipf(0.9) %.4f, uniform over 96 keys %.4f", zipf, uniform)
}
