package stats

import (
	"fmt"
	"math"
)

// defaultBatches is the batch count NewWindow selects for batches 0.
const defaultBatches = 20

// Window is the measurement window of an event-driven simulation:
// [warmup, warmup+horizon) split into equal batches for batch-means
// confidence intervals. A simulator builds one per run, files each
// counted event under the batch Of names and integrates time-weighted
// state with Add.
type Window struct {
	start, end float64 // [warmup, warmup+horizon)
	batchLen   float64
	batches    int
}

// NewWindow validates a simulation's run length and resolves its
// defaults: batches 0 means 20; warmup must be finite and
// non-negative; horizon finite and positive; at least 2 batches.
func NewWindow(warmup, horizon float64, batches int) (Window, error) {
	if math.IsNaN(warmup) || math.IsInf(warmup, 0) {
		return Window{}, fmt.Errorf("warmup %v is not finite", warmup)
	}
	if warmup < 0 {
		return Window{}, fmt.Errorf("negative warmup %v", warmup)
	}
	if math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		return Window{}, fmt.Errorf("horizon %v is not finite", horizon)
	}
	if horizon <= 0 {
		return Window{}, fmt.Errorf("horizon must be positive, got %v", horizon)
	}
	if batches == 0 {
		batches = defaultBatches
	}
	if batches < 2 {
		return Window{}, fmt.Errorf("need at least 2 batches, got %d", batches)
	}
	w := Window{
		start:    warmup,
		end:      warmup + horizon,
		batchLen: horizon / float64(batches),
		batches:  batches,
	}
	if math.IsInf(w.end, 0) || !(w.batchLen > 0) {
		return Window{}, fmt.Errorf("warmup %v, horizon %v and %d batches overflow the window", warmup, horizon, batches)
	}
	return w, nil
}

// Start returns the warmup, where measurement begins.
func (w Window) Start() float64 { return w.start }

// End returns warmup+horizon, where the run stops.
func (w Window) End() float64 { return w.end }

// Batches returns the batch count.
func (w Window) Batches() int { return w.batches }

// BatchLen returns horizon/batches, the length of one batch.
func (w Window) BatchLen() float64 { return w.batchLen }

// Of returns the batch holding time t: -1 outside [warmup,
// warmup+horizon), and the last batch for a t that rounds past it.
func (w Window) Of(t float64) int {
	if !(t >= w.start && t < w.end) {
		return -1
	}
	b := int((t - w.start) / w.batchLen)
	if b >= w.batches {
		b = w.batches - 1
	}
	return b
}

// Add adds v*dt over [t0, t1) to the per-batch areas in out (one entry
// per batch), clipping to the window and splitting across batch
// boundaries. The common case, both endpoints inside one batch, is a
// single add; a span that crosses boundaries costs one step per batch
// it touches, stepping the batch index rather than recomputing it, so
// a boundary that rounds back into its own batch cannot stall it.
func (w Window) Add(out []float64, t0, t1, v float64) {
	if v == 0 { //lint:allow floatcmp skips exactly-zero accumulation; tiny areas must still integrate
		return
	}
	if t0 < w.start {
		t0 = w.start
	}
	// The last batch ends at its computed boundary, or at end when
	// that boundary rounds past it.
	stop := w.start + w.batchLen*float64(w.batches)
	if stop > w.end {
		stop = w.end
	}
	if t1 > stop {
		t1 = stop
	}
	if !(t0 < t1) {
		return
	}
	b := int((t0 - w.start) / w.batchLen)
	if b >= w.batches {
		return
	}
	bEnd := w.start + w.batchLen*float64(b+1)
	if t1 <= bEnd {
		out[b] += v * (t1 - t0)
		return
	}
	for {
		seg := t1
		if bEnd < seg {
			seg = bEnd
		}
		out[b] += v * (seg - t0)
		t0 = seg
		if t0 >= t1 {
			return
		}
		b++
		if b >= w.batches {
			return
		}
		bEnd = w.start + w.batchLen*float64(b+1)
	}
}
