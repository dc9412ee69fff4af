package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func mustWindow(t testing.TB, warmup, horizon float64, batches int) Window {
	t.Helper()
	w, err := NewWindow(warmup, horizon, batches)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// addRef is the obvious O(batches) reference: intersect [t0,t1) with
// every batch window independently.
func addRef(out []float64, w Window, t0, t1, v float64) {
	for b := 0; b < w.Batches(); b++ {
		lo := math.Max(t0, w.Start()+float64(b)*w.BatchLen())
		hi := math.Min(t1, w.Start()+float64(b+1)*w.BatchLen())
		if hi > lo {
			out[b] += v * (hi - lo)
		}
	}
}

// TestWindowAddMatchesReference drives Add with random spans — before
// the window, inside one batch, across several, past the end — and
// checks the per-batch areas against the naive reference.
func TestWindowAddMatchesReference(t *testing.T) {
	w := mustWindow(t, 10, 40, 8) // batches of 5 over [10, 50)
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 2000; trial++ {
		a := r.Float64()*60 - 5
		b := r.Float64()*60 - 5
		t0, t1 := math.Min(a, b), math.Max(a, b)
		v := 1 + r.Float64()
		got := make([]float64, w.Batches())
		want := make([]float64, w.Batches())
		w.Add(got, t0, t1, v)
		addRef(want, w, t0, t1, v)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d span [%g,%g): batch %d got %g want %g", trial, t0, t1, i, got[i], want[i])
			}
		}
	}
}

// areaSum returns the batch areas' total.
func areaSum(out []float64) float64 {
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	return sum
}

// clippedSpan returns the length of [t0,t1) inside [Start, End).
func clippedSpan(w Window, t0, t1 float64) float64 {
	return math.Max(0, math.Min(t1, w.End())-math.Max(t0, w.Start()))
}

// TestWindowAddConservesArea checks the invariant the estimators rely
// on: the batch areas of a span clipped to the window sum to the
// clipped span length times the value.
func TestWindowAddConservesArea(t *testing.T) {
	w := mustWindow(t, 0, 10, 4) // batches of 2.5 over [0, 10)
	spans := [][2]float64{{-3, -1}, {-1, 1}, {0.5, 0.6}, {1, 9}, {-2, 14}, {9.9, 12}, {10, 12}}
	for _, sp := range spans {
		out := make([]float64, w.Batches())
		w.Add(out, sp[0], sp[1], 2)
		if sum, want := areaSum(out), 2*clippedSpan(w, sp[0], sp[1]); math.Abs(sum-want) > 1e-12 {
			t.Errorf("span [%g,%g): total area %g want %g", sp[0], sp[1], sum, want)
		}
	}
}

// inlineLoopStalls replays the batch loop the simulators used to copy
// by hand, which recomputed the batch index from the clock after every
// segment, and reports whether it fails to finish [t0, t1) within one
// pass per batch: a boundary start+batchLen*(b+1) that rounds back into
// batch b leaves the clock where it was, forever.
func inlineLoopStalls(w Window, t0, t1 float64) bool {
	start, batchLen, batches := w.Start(), w.BatchLen(), w.Batches()
	t1 = math.Min(t1, w.End())
	steps := 0
	for clock := math.Max(t0, start); clock < t1; steps++ {
		if steps > batches+1 {
			return true
		}
		b := int((clock - start) / batchLen)
		if b < 0 || b >= batches {
			break
		}
		clock = math.Min(t1, start+batchLen*float64(b+1))
	}
	return false
}

// TestWindowAddTerminatesOnRoundingWindows pins the fix for windows
// whose batch boundaries round back into the batch before them: the
// old inline loop spins on them (shown by inlineLoopStalls), Add must
// finish and conserve area over the whole window, every event gap, and
// a span crossing every boundary.
func TestWindowAddTerminatesOnRoundingWindows(t *testing.T) {
	cases := []struct {
		warmup, horizon float64
		batches         int
	}{
		{10, 37, 20},
		{0, 1, 9},
		{43.771418718698015, 425.63749707126567, 40},
	}
	for _, c := range cases {
		w := mustWindow(t, c.warmup, c.horizon, c.batches)
		if !inlineLoopStalls(w, w.Start(), w.End()) {
			t.Errorf("%+v: expected the inline loop to stall on this window", c)
		}
		done := make(chan []float64, 1)
		go func() {
			out := make([]float64, w.Batches())
			w.Add(out, w.Start()-1, w.End()+1, 1)
			r := rand.New(rand.NewSource(5))
			for now := 0.0; now < w.End(); {
				next := now + r.ExpFloat64()*w.BatchLen()/3
				w.Add(out, now, next, 1)
				now = next
			}
			done <- out
		}()
		select {
		case out := <-done:
			// Two full passes over the window: the whole span, then the
			// chain of event gaps covering it.
			want := 2 * clippedSpan(w, w.Start(), w.End())
			if sum := areaSum(out); math.Abs(sum-want) > 1e-9*want {
				t.Errorf("%+v: total area %v want %v", c, sum, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%+v: Add did not terminate", c)
		}
	}
}

// TestNewWindow checks the run-length rules every simulator shares.
func TestNewWindow(t *testing.T) {
	w := mustWindow(t, 5, 100, 0)
	if w.Batches() != defaultBatches || w.BatchLen() != 5 || w.Start() != 5 || w.End() != 105 {
		t.Errorf("defaults: got %+v", w)
	}
	bad := []struct {
		warmup, horizon float64
		batches         int
	}{
		{0, 0, 0}, {0, -1, 0}, {-1, 10, 0}, {0, 10, 1}, {0, 10, -3},
		{math.NaN(), 10, 0}, {math.Inf(1), 10, 0}, {math.Inf(-1), 10, 0},
		{0, math.NaN(), 0}, {0, math.Inf(1), 0},
		{math.MaxFloat64, math.MaxFloat64, 0}, // end overflows
		{0, 5e-324, 20},                       // zero-length batches
	}
	for _, c := range bad {
		if _, err := NewWindow(c.warmup, c.horizon, c.batches); err == nil {
			t.Errorf("NewWindow(%v, %v, %d) accepted", c.warmup, c.horizon, c.batches)
		}
	}
}

// TestWindowOf checks Of's edges: -1 outside [warmup, warmup+horizon),
// batch boundaries, and NaN.
func TestWindowOf(t *testing.T) {
	w := mustWindow(t, 10, 40, 8)
	for _, c := range []struct {
		t    float64
		want int
	}{{9.999, -1}, {10, 0}, {14.999, 0}, {15, 1}, {49.999, 7}, {50, -1}, {math.NaN(), -1}, {math.Inf(1), -1}} {
		if got := w.Of(c.t); got != c.want {
			t.Errorf("Of(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

// FuzzWindow checks the window's contract on arbitrary run lengths and
// spans: NewWindow rejects non-finite values, a negative warmup and a
// single batch; Add terminates and conserves area; Of names the batch
// Add credits for a short span starting at the same instant.
func FuzzWindow(f *testing.F) {
	f.Add(10.0, 37.0, 0, 12.5, 30.0, 1.0)
	f.Add(0.0, 1.0, 9, -0.5, 0.75, 2.0)
	f.Add(43.771418718698015, 425.63749707126567, 40, 50.0, 460.0, 3.0)
	f.Add(20.0, 200.0, 0, 0.0, 1e9, 1.0)
	f.Add(-1.0, 10.0, 0, 0.0, 1.0, 1.0)
	f.Add(0.0, 10.0, 1, 0.0, 1.0, 1.0)
	f.Add(math.NaN(), 10.0, 0, 0.0, 1.0, 1.0)
	f.Add(0.0, math.Inf(1), 0, 0.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, warmup, horizon float64, batches int, t0, t1, v float64) {
		batches %= 5000 // keep a crossing span's per-batch steps cheap
		w, err := NewWindow(warmup, horizon, batches)
		invalid := math.IsNaN(warmup) || math.IsInf(warmup, 0) || warmup < 0 ||
			math.IsNaN(horizon) || math.IsInf(horizon, 0) || horizon <= 0 ||
			batches == 1 || batches < 0
		if invalid {
			if err == nil {
				t.Fatalf("NewWindow(%v, %v, %d) accepted", warmup, horizon, batches)
			}
			return
		}
		if err != nil {
			return // a finite window whose end overflows or batches underflow
		}
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		scale := math.Max(1, math.Max(math.Abs(t0), math.Abs(t1)))
		scale = math.Max(scale, w.End())
		if math.IsNaN(v) || math.IsInf(v, 0) || math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(v)*scale > 1e300 {
			return
		}

		out := make([]float64, w.Batches())
		w.Add(out, t0, t1, v)
		// Add clips at the last batch's computed boundary, which may
		// round a few ulps inside End.
		want := v * clippedSpan(w, t0, t1)
		slack := 8 * float64(w.Batches()+2) * 0x1p-52 * math.Abs(v) * scale
		if sum := areaSum(out); !(math.Abs(sum-want) <= slack) {
			t.Fatalf("window %+v span [%v,%v) v %v: area %v want %v (slack %v)", w, t0, t1, v, sum, want, slack)
		}

		if t0 < w.Start() {
			return
		}
		of := w.Of(t0)
		short := make([]float64, w.Batches())
		w.Add(short, t0, t0+w.BatchLen()/1024, 1)
		first := -1
		for i, a := range short {
			if a != 0 { //lint:allow floatcmp an uncredited batch holds exactly zero
				first = i
				break
			}
		}
		if first < 0 {
			return // the span rounded away, or lies past the last boundary
		}
		// A t on a boundary that rounds into the batch before it: Add
		// credits that batch a zero-length piece and the next one the
		// span.
		onBoundary := first == of+1 && w.Start()+w.BatchLen()*float64(of+1) <= t0
		if first != of && !onBoundary {
			t.Fatalf("window %+v: Of(%v) = %d, Add credits batch %d first", w, t0, of, first)
		}
	})
}
