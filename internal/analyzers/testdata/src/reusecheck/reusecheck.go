// Package reusecheck exercises the reusecheck analyzer with a
// self-contained recycling pool: use-after-release, double release,
// escaped views, and in-place recycling via //lint:pooled recv.
package reusecheck

import "errors"

type item struct {
	buf []float64
}

type pool struct {
	free []*item
}

var errEmpty = errors.New("empty")

func (p *pool) get() (*item, error) {
	if n := len(p.free); n > 0 {
		it := p.free[n-1]
		p.free = p.free[:n-1]
		return it, nil
	}
	return &item{buf: make([]float64, 8)}, nil
}

// put hands it back to the free list; the caller must not touch it
// (or views of its buffer) afterwards.
//
//lint:pooled
func (p *pool) put(it *item) {
	p.free = append(p.free, it)
}

// refill replaces the scratch buffer in place, invalidating any view
// previously read off this item.
//
//lint:pooled recv
func (it *item) refill(n int) {
	it.buf = make([]float64, n)
}

func useAfterRelease(p *pool) float64 {
	it, _ := p.get()
	p.put(it)
	return it.buf[0] // want "it used after release"
}

func doubleRelease(p *pool) {
	it, _ := p.get()
	p.put(it)
	p.put(it) // want "released again"
}

func escapedView(p *pool) float64 {
	it, _ := p.get()
	view := it.buf
	p.put(it)
	return view[0] // want "view .derived from it. used after it was released"
}

func staleViewAfterRefill(it *item) float64 {
	view := it.buf
	it.refill(16)
	return view[0] // want "view used after release"
}

func freshAfterRefill(it *item) float64 {
	it.refill(16)
	view := it.buf
	return view[0]
}

func deferOK(p *pool) (float64, error) {
	it, err := p.get()
	if err != nil {
		return 0, errEmpty
	}
	defer p.put(it)
	return it.buf[0], nil
}

func rebindOK(p *pool) float64 {
	it, _ := p.get()
	p.put(it)
	it, _ = p.get()
	return it.buf[0]
}

func allowedScratch(p *pool) float64 {
	it, _ := p.get()
	p.put(it)
	//lint:allow reusecheck the pool is single-threaded in this harness
	return it.buf[0]
}

// genericPool is a recycling pool declared on a generic type: calls
// go through an instantiation (genericPool[*item]), whose method
// object differs from the declared one the directive sits on.
type genericPool[V any] struct {
	free []V
}

//lint:pooled
func (p *genericPool[V]) release(v V) {
	p.free = append(p.free, v)
}

func genericUseAfterRelease(p *genericPool[*item], it *item) float64 {
	p.release(it)
	return it.buf[0] // want "it used after release"
}

func genericDeferOK(p *genericPool[*item], it *item) float64 {
	defer p.release(it)
	return it.buf[0]
}

// A release inside a select or switch case body is one release: the
// clause stands for its head only, the body statements for themselves.
func selectReleaseOK(p *pool, done chan struct{}) float64 {
	it, _ := p.get()
	select {
	case <-done:
		p.put(it)
		return 0
	default:
	}
	return it.buf[0]
}

func switchReleaseOK(p *pool, k int) float64 {
	it, _ := p.get()
	switch k {
	case 0:
		p.put(it)
		return 0
	}
	return it.buf[0]
}

func selectUseAfterRelease(p *pool, done chan struct{}) float64 {
	it, _ := p.get()
	select {
	case <-done:
		p.put(it)
		return it.buf[0] // want "it used after release"
	default:
		return 0
	}
}
