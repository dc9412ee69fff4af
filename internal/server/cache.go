package server

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// errFillPanicked is the error every waiter on a fill that panicked
// receives. The fill's own caller re-panics instead, so instrument
// answers it 500 and logs the panic; the key is fillable again at
// once.
var errFillPanicked = errors.New("server: cache fill panicked")

// cache is the SIEVE cache in front of every served path: up to max
// values keyed by a canonical operating-point key, with single-flight
// fills and per-entry reference counts. The solver path caches filled
// lattices and recycles evicted ones through onEvict; the scenario
// path caches immutable results and passes no hook. Maps, list, hand
// and visited bits are guarded by mu; fills run outside it.
//
// SIEVE (Zhang et al., NSDI 2024) keeps insertion order: a hit only
// sets its entry's visited bit, and eviction sweeps a hand from the
// oldest entry toward the newest, clearing bits, and evicts the first
// entry found unvisited. A hit never reorders the list, and an entry
// requested since the hand last passed survives the next pass, so
// popular keys stay while one-off misses leave first.
type cache[V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List            // resident handles, front = newest insert
	items map[string]*handle[V] // resident and in-flight handles
	hand  *list.Element         // next eviction candidate; nil = ll.Back()

	// onEvict, when non-nil, runs once per evicted value, when its last
	// reference drops (at eviction if none is held), outside mu.
	onEvict func(V)
	stats   *cacheStats
}

// handle is one key's value, from the fill that produces it until its
// last reference drops. v and err are final once done is closed.
type handle[V any] struct {
	v    V
	err  error
	done chan struct{}

	key     string
	el      *list.Element // position in ll while resident, else nil
	refs    int           // requests holding or awaiting v (cache lock)
	visited bool          // requested since the hand last passed (cache lock)
	evicted bool          // left ll; onEvict runs on the last release
}

func newCache[V any](maxEntries int, onEvict func(V), stats *cacheStats) *cache[V] {
	return &cache[V]{
		max:     maxEntries,
		ll:      list.New(),
		items:   make(map[string]*handle[V]),
		onEvict: onEvict,
		stats:   stats,
	}
}

// get returns the handle for key, running fill on a miss. Concurrent
// identical requests share one fill; its error is shared with them but
// never cached. cached reports whether the value came from the cache
// or a shared in-flight fill rather than a fill this call ran. On
// success the caller holds a reference and must pass the handle to
// release once done reading it.
func (c *cache[V]) get(ctx context.Context, key string, fill func() (V, error)) (h *handle[V], cached bool, err error) {
	c.mu.Lock()
	if h = c.items[key]; h != nil {
		h.refs++         // granted now, so the value cannot be evicted from under us
		h.visited = true // a join marks an in-flight value too
		if h.el != nil {
			c.mu.Unlock()
			c.stats.hits.Add(1)
			return h, true, nil
		}
		c.mu.Unlock()
		c.stats.shared.Add(1)
		select {
		case <-h.done:
			if h.err != nil {
				return nil, true, h.err
			}
			return h, true, nil
		case <-ctx.Done():
			c.release(h)
			return nil, false, ctx.Err()
		}
	}
	h = &handle[V]{done: make(chan struct{}), key: key, refs: 1}
	c.items[key] = h
	c.mu.Unlock()
	c.stats.misses.Add(1)
	c.run(h, fill)
	if h.err != nil {
		return nil, false, h.err
	}
	return h, false, nil
}

// run fills h and completes its flight. The completion is deferred so
// that a panicking fill still completes it — with errFillPanicked —
// before the panic carries on up the caller's stack; otherwise every
// later request for the key would wait on the flight until its
// deadline.
func (c *cache[V]) run(h *handle[V], fill func() (V, error)) {
	var v V
	err := errFillPanicked
	defer func() {
		var idle *handle[V]
		c.mu.Lock()
		h.v, h.err = v, err
		if err != nil {
			delete(c.items, h.key)
			h.refs = 0 // a failed handle holds no references
		} else {
			h.el = c.ll.PushFront(h)
			if c.ll.Len() > c.max { // only completions insert: one over at most
				idle = c.evictLocked()
			}
		}
		c.mu.Unlock()
		close(h.done)
		c.dispose(idle)
	}()
	v, err = fill()
}

// evictLocked moves the hand toward the front, wrapping to the back,
// clearing visited bits until it finds an unvisited value; it drops
// that value, leaves the hand on its newer neighbour, and returns its
// handle if no request holds it, for dispose. A value still referenced
// is disposed of on its last release instead: recycling a lattice a
// request is still reading would let the next miss refill it mid-read.
func (c *cache[V]) evictLocked() *handle[V] {
	el := c.hand
	if el == nil {
		el = c.ll.Back()
	}
	for h := el.Value.(*handle[V]); h.visited; h = el.Value.(*handle[V]) {
		h.visited = false
		if el = el.Prev(); el == nil {
			el = c.ll.Back()
		}
	}
	c.hand = el.Prev()
	old := c.ll.Remove(el).(*handle[V])
	delete(c.items, old.key)
	old.el = nil
	old.evicted = true
	c.stats.evictions.Add(1)
	if old.refs > 0 {
		return nil
	}
	return old
}

// release returns a reference taken by get. After the last release of
// an evicted value the hook may recycle it, so the caller must not
// read the value (or anything served off it) after releasing.
//
//lint:pooled
func (c *cache[V]) release(h *handle[V]) {
	c.mu.Lock()
	idle := false
	if h.err == nil {
		h.refs--
		idle = h.refs == 0 && h.evicted
	}
	c.mu.Unlock()
	if idle {
		c.dispose(h)
	}
}

// dispose hands an evicted, unreferenced value to the hook, outside
// the cache lock. h may be nil.
func (c *cache[V]) dispose(h *handle[V]) {
	if h != nil && c.onEvict != nil {
		c.onEvict(h.v)
	}
}

// len reports the number of resident values (not counting in-flight
// fills).
func (c *cache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
