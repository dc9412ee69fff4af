package sim

import (
	"fmt"
	"testing"

	"xbar/internal/core"
	"xbar/internal/rng"
)

// benchSwitch is the standing throughput workload: a 16x16 fabric
// offered a Poisson narrowband class, a bursty (Pascal) class, and a
// multi-rate a=2 class, running near 60% port occupancy so arrivals,
// departures and blocking all exercise their paths.
func benchSwitch() core.Switch {
	return core.Switch{N1: 16, N2: 16, Classes: []core.Class{
		{Name: "p1", A: 1, Alpha: 0.0234, Mu: 1},
		{Name: "b1", A: 1, Alpha: 0.002, Beta: 0.002, Mu: 1},
		{Name: "w2", A: 2, Alpha: 2.6e-5, Mu: 1},
	}}
}

// BenchmarkSimEvents is the canonical events-per-second measurement
// of the rebuilt engine (docs/PERFORMANCE.md tracks it across PRs;
// the seed engine measured 5.4M events/s on this exact workload).
// The state is constructed once and reset per iteration, so the
// reported allocs/op is the engine's true steady-state allocation
// count: zero.
func BenchmarkSimEvents(b *testing.B) {
	benchEvents(b, Config{Switch: benchSwitch(), Seed: 42, Warmup: 200, Horizon: 5000})
}

// BenchmarkSimEventsLarge scales the fabric to 128x128 with ~80
// concurrent connections, beyond flatScheduleMax, so departures run
// on the 4-ary heap.
func BenchmarkSimEventsLarge(b *testing.B) {
	sw := core.Switch{N1: 128, N2: 128, Classes: []core.Class{
		{Name: "p1", A: 1, Alpha: 0.0043, Mu: 1},
		{Name: "w2", A: 2, Alpha: 3.1e-7, Mu: 1},
	}}
	b.Run("heap", func(b *testing.B) {
		benchEvents(b, Config{Switch: sw, Seed: 42, Warmup: 100, Horizon: 500})
	})
}

func benchEvents(b *testing.B, cfg Config) {
	b.Helper()
	p, err := prepare(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := newState(p, cfg)
	stream := rng.NewStream(cfg.Seed)
	b.ReportAllocs()
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Reseed(cfg.Seed)
		s.reset(stream)
		if err := s.run(p.maxEvents); err != nil {
			b.Fatal(err)
		}
		events += s.events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkFarm measures replication-farm scaling by worker count on
// the standing workload (8 replications of a short horizon).
func BenchmarkFarm(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Farm(FarmConfig{
					Config:  Config{Switch: benchSwitch(), Seed: 42, Warmup: 100, Horizon: 1000},
					Reps:    8,
					Workers: w,
				})
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.StopTimer()
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
