package latency

import (
	"testing"
	"time"
)

// TestBucketBounds pins the bucket scheme: a bound is inclusive, one
// nanosecond over it lands in the next bucket, and anything past 10s
// overflows.
func TestBucketBounds(t *testing.T) {
	var h Histogram
	var total time.Duration
	for _, d := range []time.Duration{
		0, 100 * time.Microsecond, // le_100us
		100*time.Microsecond + 1, time.Millisecond, // le_1ms
		10 * time.Millisecond, 100 * time.Millisecond, time.Second, 10 * time.Second,
		10*time.Second + 1, time.Hour, // over_10s
	} {
		h.Observe(d)
		total += d
	}
	got := h.Snapshot()
	want := Buckets{Le100us: 2, Le1ms: 2, Le10ms: 1, Le100ms: 1, Le1s: 1, Le10s: 1, Over10s: 2}
	if got.Latency != want {
		t.Errorf("buckets %+v, want %+v", got.Latency, want)
	}
	if want := float64(total.Nanoseconds()) / 1e6; got.TotalMs != want {
		t.Errorf("total %v ms, want %v", got.TotalMs, want)
	}
	if avg := got.TotalMs / 10; got.AvgMs != avg {
		t.Errorf("mean %v ms, want %v", got.AvgMs, avg)
	}
	if empty := new(Histogram).Snapshot(); empty != (Summary{}) {
		t.Errorf("empty histogram %+v, want zero", empty)
	}
}
