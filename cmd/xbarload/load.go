package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xbar/internal/cluster"
	"xbar/internal/rng"
)

// workers is the number of requests in flight at most: one per core of
// the 2-core host the benchmark was sized on.
const workers = 2

// sample is one finished request.
type sample struct {
	req            int32
	node           int8
	out            outcome
	status         int16
	models, cached int16         // /v1/grid only
	lat            time.Duration // from the send, or from the due time in the open loop
	late           time.Duration // open loop: how late the generator sent it
	trace          uint64        // the request's trace id when traced, else 0
}

func (s *sample) ok() bool { return s.out != outFailed }

// loader sends a workload's requests to a fleet and checks every
// answer. Failures are counted in the samples; the first few messages
// are kept for the report.
type loader struct {
	w      *workload
	client *http.Client
	nodes  []node
	tr     *tracer // nil: no spans

	mu   sync.Mutex
	errs []string
}

func (l *loader) fail(s *sample, err error) {
	s.out = outFailed
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
}

// send posts request ri to node ni and checks the answer.
func (l *loader) send(ctx context.Context, ni, ri int) sample {
	rq := &l.w.reqs[ri]
	n := l.nodes[ni]
	s := sample{req: int32(ri), node: int8(ni)}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, n.url+rq.ep.path(), bytes.NewReader(rq.body))
	if err != nil {
		l.fail(&s, err)
		return s
	}
	hreq.Header.Set("Content-Type", "application/json")
	var t0 int64
	if l.tr != nil && l.tr.on.Load() {
		s.trace = l.tr.begin()
		hreq.Header.Set(traceHeader, strconv.FormatUint(s.trace, 10))
		t0 = l.tr.now()
	}
	start := time.Now()
	resp, err := l.client.Do(hreq)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		_ = resp.Body.Close() //lint:allow errcheck the body is fully read; a close failure cannot change it
		s.status = int16(resp.StatusCode)
	}
	s.lat = time.Since(start)
	if s.trace != 0 {
		l.tr.add(span{Trace: s.trace, ID: s.trace, Name: "client.request", Start: t0, End: l.tr.now()})
	}
	switch {
	case err != nil:
		l.fail(&s, fmt.Errorf("%s %s: %w", n.id, rq.ep.path(), err))
		return s
	case resp.StatusCode/100 != 2:
		l.fail(&s, fmt.Errorf("%s %s: status %d: %s", n.id, rq.ep.path(), resp.StatusCode, clip(body)))
		return s
	}
	v, err := check(rq, body)
	if err != nil {
		l.fail(&s, fmt.Errorf("%s %s: %w", n.id, rq.ep.path(), err))
		return s
	}
	s.out, s.models, s.cached = v.out, int16(v.models), int16(v.cached)
	if by := resp.Header.Get(cluster.HeaderNode); by != "" && by != n.id {
		s.out = outForwarded
	}
	return s
}

// closed runs the closed loop: each worker sends its next request,
// drawn from its stream, as soon as the previous one is answered, until
// d has passed. Requests go round robin over nodes. It returns the
// samples and the elapsed time.
func (l *loader) closed(ctx context.Context, streams [workers]*rng.Stream, d time.Duration, nodes []int) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var out [workers][]sample
	var wg sync.WaitGroup
	for w, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ctx.Err() == nil && time.Now().Before(deadline); k++ {
				out[w] = append(out[w], l.send(ctx, nodes[(workers*k+w)%len(nodes)], l.w.pick(st)))
			}
		}()
	}
	wg.Wait()
	return append(out[0], out[1]...), time.Since(start)
}

// sendAll sends each listed request once, round robin over all nodes,
// at most workers at a time (the prefill).
func (l *loader) sendAll(ctx context.Context, idx []int) []sample {
	var next atomic.Int64
	var out [workers][]sample
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(idx) {
					return
				}
				out[w] = append(out[w], l.send(ctx, i%len(l.nodes), idx[i]))
			}
		}()
	}
	wg.Wait()
	return append(out[0], out[1]...)
}

// burstGrace is how long after the burst phase's end the open loop
// still sends requests that fell behind; later ones are never sent.
const burstGrace = 2 * time.Second

// burst runs the open loop over one burst schedule: two senders each
// take the next arrival, wait until it is due and send it, so at most
// two requests are in flight and a stall delays every arrival behind
// it. Latency counts from the due time. A sample's lateness is the
// timer's: how long after it was due, or after its sender became free
// if that was later, the request went out. It returns the samples and
// the number of arrivals scheduled.
func (l *loader) burst(ctx context.Context, phase int, d time.Duration) ([]sample, int) {
	sched := l.w.schedule(phase, d)
	var next atomic.Int64
	var out [workers][]sample
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Duration(0)
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				if wait := a.at - time.Since(start); wait > 0 {
					sleepPrecise(wait)
				}
				sent := time.Since(start)
				if sent > d+burstGrace {
					return
				}
				s := l.send(ctx, i%len(l.nodes), a.req)
				s.lat += sent - a.at
				s.late = sent - max(a.at, free)
				out[w] = append(out[w], s)
				free = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return append(out[0], out[1]...), len(sched)
}

// sleepPrecise blocks the calling thread in nanosleep. time.Sleep would
// round a sub-millisecond wait up to a millisecond whenever the process
// is otherwise idle (the runtime's poller waits in whole milliseconds),
// and the open loop would measure that instead of xbard.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
