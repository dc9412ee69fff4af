// This file implements the replication farm: R independent
// replications of one Config on W workers, with deterministic
// per-replication RNG substreams and pooled batch-means intervals.
// Results are a pure function of (Config, Reps): bit-identical across
// worker counts, scheduling, and repeated runs.

package sim

import (
	"fmt"

	"xbar/internal/parallel"
	"xbar/internal/rng"
	"xbar/internal/stats"
)

// FarmConfig parameterizes a replication farm run.
type FarmConfig struct {
	// Config is the per-replication simulation setup. Config.Seed
	// seeds the farm: replication i runs on Substream(i) of a stream
	// built from it, so no two replications share or correlate
	// streams, and replication i's stream does not depend on which
	// worker runs it.
	Config
	// Reps is the number of independent replications (>= 1).
	Reps int
	// Workers caps the worker goroutines; <= 0 selects GOMAXPROCS.
	// The worker count affects wall-clock time only, never results.
	Workers int
}

// FarmResult pools the estimates of all replications. Batch means
// from every replication are pooled into one sample per measure
// (Reps x Batches values), which is what tightens the intervals by
// ~sqrt(Reps) over a single run.
type FarmResult struct {
	// Reps is the number of replications pooled.
	Reps int
	// Classes holds pooled per-class estimates; Offered/Blocked are
	// summed over replications.
	Classes []ClassResult
	// MeanOccupancy is the pooled time-average number of busy inputs,
	// now with a confidence interval.
	MeanOccupancy stats.CI
	// Utilization is MeanOccupancy.Mean over min(N1,N2).
	Utilization float64
	// Occupancy[s] is the pooled time fraction with s busy inputs.
	Occupancy []float64
	// Events is the total processed in all measured phases.
	Events int64
}

// Farm runs fc.Reps independent replications on up to fc.Workers
// workers and pools their batch means. Each worker owns one
// simulator state, reset per replication, so a farm of any size
// performs a constant number of allocations per worker — not per
// replication, and not per event.
func Farm(fc FarmConfig) (*FarmResult, error) {
	if fc.Reps < 1 {
		return nil, fmt.Errorf("sim: farm needs at least 1 replication, got %d", fc.Reps)
	}
	p, err := prepare(fc.Config)
	if err != nil {
		return nil, err
	}
	base := rng.NewStream(fc.Seed)
	workers := parallel.Workers(fc.Workers)
	states := make([]*state, workers)
	raws := make([]*raw, fc.Reps)
	err = parallel.ForEachWorker(fc.Workers, fc.Reps, func(w, i int) error {
		st := states[w]
		if st == nil {
			st = newState(p, fc.Config)
			states[w] = st
		}
		st.reset(base.Substream(uint64(i)))
		if err := st.run(p.maxEvents); err != nil {
			return fmt.Errorf("replication %d: %w", i, err)
		}
		raws[i] = st.extract()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pool(raws, p, fc.Reps), nil
}

// pool merges per-replication records in replication order — the
// deterministic merge that makes farm output independent of worker
// count — and builds pooled intervals.
func pool(raws []*raw, p runParams, reps int) *FarmResult {
	batches := p.win.Batches()
	minN := p.sw.MinN()
	nClasses := len(p.sw.Classes)
	res := &FarmResult{Reps: reps}

	occB := make([]float64, 0, reps*batches)
	occHist := make([]float64, minN+1)
	for _, w := range raws {
		res.Events += w.events
		occB = append(occB, w.occB...)
		for s, v := range w.occHist {
			occHist[s] += v
		}
	}
	res.MeanOccupancy = stats.BatchMeans(occB, p.level)
	res.Utilization = res.MeanOccupancy.Mean / float64(minN)
	total := 0.0
	for _, v := range occHist {
		total += v
	}
	if total > 0 {
		res.Occupancy = make([]float64, minN+1)
		for s, v := range occHist {
			res.Occupancy[s] = v / total
		}
	}

	kB := make([]float64, 0, reps*batches)
	rbB := make([]float64, 0, reps*batches)
	fxB := make([]float64, 0, reps*batches)
	var blockB []float64
	for r := 0; r < nClasses; r++ {
		kB, rbB, fxB, blockB = kB[:0], rbB[:0], fxB[:0], blockB[:0]
		var offered, blocked int64
		for _, w := range raws {
			rc := &w.classes[r]
			kB = append(kB, rc.kB...)
			rbB = append(rbB, rc.rbB...)
			fxB = append(fxB, rc.fxB...)
			for b := 0; b < batches; b++ {
				offered += rc.offered[b]
				blocked += rc.blocked[b]
				if rc.offered[b] > 0 {
					blockB = append(blockB, float64(rc.blocked[b])/float64(rc.offered[b]))
				}
			}
		}
		cr := ClassResult{
			Offered:         offered,
			Blocked:         blocked,
			Concurrency:     stats.BatchMeans(kB, p.level),
			TimeNonBlocking: stats.BatchMeans(rbB, p.level),
			FixedRouteIdle:  stats.BatchMeans(fxB, p.level),
		}
		cr.CallBlocking = stats.BatchCI(blockB, p.level)
		res.Classes = append(res.Classes, cr)
	}
	return res
}
