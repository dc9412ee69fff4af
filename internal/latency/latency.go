// Package latency is the lock-free latency histogram behind xbard's
// metrics: the server's per-endpoint request latencies and the
// cluster layer's per-peer forward latencies record into the same
// type and render the same JSON.
package latency

import (
	"sync/atomic"
	"time"
)

// boundsNs are the bucket upper bounds, in nanoseconds: 100µs, 1ms,
// 10ms, 100ms, 1s, 10s, then overflow. A cached blocking read or a
// warm forwarded hit lands in the first bucket or two, a cold N=1024
// fill in the hundreds of milliseconds; anything in the overflow
// bucket deserves a look at /debug/pprof.
var boundsNs = [...]int64{
	100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000,
}

// Histogram counts observations per bucket and sums their durations.
// The zero value is ready; Observe and Snapshot run lock-free.
type Histogram struct {
	totalNs atomic.Int64
	buckets [len(boundsNs) + 1]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	h.totalNs.Add(ns)
	i := 0
	for i < len(boundsNs) && ns > boundsNs[i] {
		i++
	}
	h.buckets[i].Add(1)
}

// Buckets is the distribution in a metrics document; each field
// counts observations at or below its bound (and above the previous
// one).
type Buckets struct {
	Le100us int64 `json:"le_100us"`
	Le1ms   int64 `json:"le_1ms"`
	Le10ms  int64 `json:"le_10ms"`
	Le100ms int64 `json:"le_100ms"`
	Le1s    int64 `json:"le_1s"`
	Le10s   int64 `json:"le_10s"`
	Over10s int64 `json:"over_10s"`
}

// Summary is a histogram at snapshot time, as the metrics documents
// carry it: total and mean duration in milliseconds, then the buckets.
type Summary struct {
	TotalMs float64 `json:"total_ms"`
	AvgMs   float64 `json:"avg_ms"`
	Latency Buckets `json:"latency"`
}

// Snapshot renders the histogram. Counters are read one by one, not
// under a lock, so a snapshot taken mid-observation is approximate,
// the usual monitoring contract.
func (h *Histogram) Snapshot() Summary {
	var b [len(boundsNs) + 1]int64
	var n int64
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
		n += b[i]
	}
	s := Summary{
		TotalMs: float64(h.totalNs.Load()) / 1e6,
		Latency: Buckets{b[0], b[1], b[2], b[3], b[4], b[5], b[6]},
	}
	if n > 0 {
		s.AvgMs = s.TotalMs / float64(n)
	}
	return s
}
