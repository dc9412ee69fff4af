// This file holds runFast, the fused event loop behind the engine's
// headline throughput. It is a transcription of runGeneric +
// arrive/depart + the flush helpers into one function whose entire
// mutable state lives in locals, so the compiler can keep the hot
// variables (clock, batch cursor, schedule argmin, occupancy) in
// registers instead of reloading state fields around every call.
// Correctness contract: for the same Config and stream, runFast and
// runGeneric must produce bit-identical trajectories — same draws in
// the same order, same statistics. TestRunFastMatchesGeneric pins
// this; any change here must be mirrored in the generic path (or vice
// versa).

package sim

import (
	"fmt"
	"math"
	"math/bits"

	"xbar/internal/rng"
)

// runFast draws exponentials by transcribing rng.(*Stream).ExpUnit at
// each call site: the ziggurat fast path inline (so the ~98.9% common
// case costs one Uint64 and two array lookups with no call — a call
// would spill the loop's register-resident locals) with the slow path
// delegated to the shared rng.ExpUnitTail on a cold branch. Draws are
// bit-identical to ExpUnit; a helper can't express this because the
// tail call alone puts it over the compiler's inlining budget.

// runFast is the fused hot loop. Preconditions (checked by run):
// flat departure schedule (useFlat) and no admission policy.
func (s *state) runFast(maxEvents int64) error {
	var (
		stream   = s.rng
		classes  = s.classes
		nextArr  = s.nextArr
		k        = s.k
		kSince   = s.kSince
		kTW      = s.kTW
		offered  = s.offered
		blocked  = s.blocked
		occTime  = s.occTime
		fixTime  = s.fixTime
		ports    = s.ports
		free     = s.free
		depAt    = s.depAt
		depC     = s.depC
		pickIn   = s.pickIn
		pickOut  = s.pickOut
		pairDraw = s.pairDraw
		mask1    = s.mask1
		mask2    = s.mask2
		n1       = s.sw.N1
		n2       = s.sw.N2
		stride   = s.stride
		maxFix   = s.maxFix
		batches  = s.batches
		win      = s.win
		start    = s.win.Start()
		end      = s.win.End()
		now      = s.now
		occ      = s.occ
		occSince = s.occSince
		fixSince = s.fixSince
		fixState = s.fixState
		curB     = s.curB
		curB0    = s.curB0
		curB1    = s.curB1
		depMin   = s.depMin
		events   = s.events
	)
	var runErr error

	// Port busy state as 64-bit masks (run requires N1, N2 <= 64), so
	// occupancy tests, sets and clears are register operations with no
	// memory traffic, and the fixed-route prefix recompute is a single
	// trailing-zeros count instead of a scan. Built from the bool
	// arrays at entry and synced back at exit so the generic path and
	// extract always see consistent state.
	var busyInM, busyOutM uint64
	for i, b := range s.busyIn {
		if b {
			busyInM |= 1 << uint(i)
		}
	}
	for i, b := range s.busyOut {
		if b {
			busyOutM |= 1 << uint(i)
		}
	}
	lowMask := uint64(1)<<uint(maxFix) - 1

	// Cached top-2 of the class arrival clocks. Most events resample
	// only the currently-minimal clock (the firing class), so the next
	// minimum is decided by one compare against the second-smallest
	// time; a full rescan runs only when the cache is invalid
	// (naR0 < 0). The rescan's strict < comparisons reproduce the
	// lowest-index-wins tie-break of a left-to-right argmin scan, and
	// the fast path falls back to a rescan on exact ties, so the event
	// order matches runGeneric's plain scan bit for bit.
	naT0 := math.Inf(1) // smallest arrival time
	naT1 := math.Inf(1) // second-smallest arrival time
	naR0 := -1          // class holding naT0; < 0 means rescan

loop:
	for {
		if naR0 < 0 {
			naT0, naT1 = math.Inf(1), math.Inf(1)
			for r, ta := range nextArr {
				if ta < naT0 {
					naT1 = naT0
					naT0, naR0 = ta, r
				} else if ta < naT1 {
					naT1 = ta
				}
			}
			if naR0 < 0 && len(depAt) == 0 {
				break loop
			}
		}
		// Next event: earliest departure (cached argmin of the flat
		// schedule, rescanned only after a pop) or the cached minimal
		// arrival. The departure scan updates its minimum with the min
		// builtin and a compare-guarded index store — branchless
		// (MINSD + CMOV), so the data-random comparisons cost latency,
		// not mispredicts. Ties between a departure and an arrival go
		// to the departure, as in runGeneric.
		var t float64
		kind := -1 // -1 none, -2 departure, r >= 0 arrival of class r
		if depMin >= 0 {
			t = depAt[depMin]
			kind = -2
		} else if len(depAt) > 0 {
			m := 0
			best := depAt[0]
			for i, at := range depAt {
				if at < best {
					m = i
				}
				best = min(best, at)
			}
			depMin = m
			t = best
			kind = -2
		} else {
			t = math.Inf(1)
		}
		if naT0 < t {
			kind = naR0
			t = naT0
		}
		if kind == -1 || t >= end {
			break loop
		}
		now = t
		if t >= curB1 {
			// Batch crossings are rare (at most batches per run):
			// sync the cursor through the shared helper.
			s.curB, s.curB0, s.curB1 = curB, curB0, curB1
			s.advanceBatch(t)
			curB, curB0, curB1 = s.curB, s.curB0, s.curB1
		}
		events++
		if events > maxEvents {
			runErr = fmt.Errorf("sim: exceeded %d events before horizon; load too high for the configured horizon", maxEvents)
			break loop
		}

		if kind == -2 {
			// ---- departure ----
			m := depMin
			d := depC[m]
			n := len(depAt) - 1
			depAt[m] = depAt[n]
			depC[m] = depC[n]
			depAt = depAt[:n]
			depC = depC[:n]
			depMin = -1
			r := int(d.class)
			cs := &classes[r]
			a := cs.a
			base := int(d.slot) * stride
			low := false
			for i := 0; i < a; i++ {
				in := ports[base+i]
				out := ports[base+a+i]
				busyInM &^= 1 << uint(in)
				busyOutM &^= 1 << uint(out)
				if int(in) < maxFix || int(out) < maxFix {
					low = true
				}
			}
			free = append(free, d.slot)
			// flushOcc
			if occSince >= curB0 {
				occTime[occ*batches+curB] += now - occSince
			} else {
				win.Add(occTime[occ*batches:(occ+1)*batches], occSince, now, 1)
			}
			occSince = now
			occ -= a
			// flushK(r)
			if kSince[r] >= curB0 {
				kTW[r*batches+curB] += float64(k[r]) * (now - kSince[r])
			} else {
				win.Add(kTW[r*batches:(r+1)*batches], kSince[r], now, float64(k[r]))
			}
			kSince[r] = now
			k[r]--
			if low {
				// flushFix + recomputeFix
				if fixSince >= curB0 {
					fixTime[fixState*batches+curB] += now - fixSince
				} else {
					win.Add(fixTime[fixState*batches:(fixState+1)*batches], fixSince, now, 1)
				}
				fixSince = now
				// recomputeFix: lowest busy port below maxFix.
				if m := (busyInM | busyOutM) & lowMask; m != 0 {
					fixState = bits.TrailingZeros64(m)
				} else {
					fixState = maxFix
				}
			}
			if cs.kDep {
				if inv := cs.invRate[k[r]]; inv < 0 {
					nextArr[r] = math.Inf(1)
				} else {
					u := stream.Uint64()
					zi := u & 255
					zj := u >> 11
					e := float64(zj) * rng.ZigWE[zi]
					if zj >= rng.ZigKE[zi] {
						e = stream.ExpUnitTail(zi, e)
					}
					nextArr[r] = now + e*inv
				}
				naR0 = -1 // any clock moved: rebuild the top-2 cache
			}
			continue
		}

		// ---- arrival of class kind ----
		r := kind
		cs := &classes[r]
		a := cs.a
		b := -1
		if now >= start {
			b = curB
			offered[r*batches+b]++
		}
		var in0, out0 int
		ok := true
		if a == 1 {
			// pickOne, inlined.
			if pairDraw {
				u := stream.Uint64()
				in0 = int(u) & mask1
				out0 = int(u>>32) & mask2
			} else {
				in0 = stream.Intn(n1)
				out0 = stream.Intn(n2)
			}
			ok = (busyInM>>uint(in0)|busyOutM>>uint(out0))&1 == 0
		} else {
			sampleDistinct(stream, n1, a, pickIn)
			sampleDistinct(stream, n2, a, pickOut)
			for i := 0; i < a; i++ {
				if (busyInM>>uint(pickIn[i])|busyOutM>>uint(pickOut[i]))&1 != 0 {
					ok = false
					break
				}
			}
		}
		if !ok {
			if b >= 0 {
				blocked[r*batches+b]++
			}
			// Blocked-and-cleared: redraw the class clock past now.
			// r is the cached minimum (it just fired): the new draw
			// keeps r minimal iff it beats the second-smallest time.
			if inv := cs.invRate[k[r]]; inv < 0 {
				nextArr[r] = math.Inf(1)
				naR0 = -1
			} else {
				u := stream.Uint64()
				zi := u & 255
				zj := u >> 11
				e := float64(zj) * rng.ZigWE[zi]
				if zj >= rng.ZigKE[zi] {
					e = stream.ExpUnitTail(zi, e)
				}
				v := now + e*inv
				nextArr[r] = v
				if v < naT1 {
					naT0 = v
				} else {
					naR0 = -1
				}
			}
			continue
		}
		slot := free[len(free)-1]
		free = free[:len(free)-1]
		base := int(slot) * stride
		low := false
		if a == 1 {
			ports[base] = int32(in0)
			ports[base+1] = int32(out0)
			busyInM |= 1 << uint(in0)
			busyOutM |= 1 << uint(out0)
			low = in0 < maxFix || out0 < maxFix
		} else {
			for i := 0; i < a; i++ {
				in := pickIn[i]
				out := pickOut[i]
				ports[base+i] = int32(in)
				ports[base+a+i] = int32(out)
				busyInM |= 1 << uint(in)
				busyOutM |= 1 << uint(out)
				if in < maxFix || out < maxFix {
					low = true
				}
			}
		}
		// flushOcc
		if occSince >= curB0 {
			occTime[occ*batches+curB] += now - occSince
		} else {
			win.Add(occTime[occ*batches:(occ+1)*batches], occSince, now, 1)
		}
		occSince = now
		occ += a
		// flushK(r)
		if kSince[r] >= curB0 {
			kTW[r*batches+curB] += float64(k[r]) * (now - kSince[r])
		} else {
			win.Add(kTW[r*batches:(r+1)*batches], kSince[r], now, float64(k[r]))
		}
		kSince[r] = now
		k[r]++
		if low {
			// flushFix + recomputeFix
			if fixSince >= curB0 {
				fixTime[fixState*batches+curB] += now - fixSince
			} else {
				win.Add(fixTime[fixState*batches:(fixState+1)*batches], fixSince, now, 1)
			}
			fixSince = now
			// recomputeFix: lowest busy port below maxFix.
			if m := (busyInM | busyOutM) & lowMask; m != 0 {
				fixState = bits.TrailingZeros64(m)
			} else {
				fixState = maxFix
			}
		}
		var hold float64
		if cs.expMean > 0 {
			u := stream.Uint64()
			zi := u & 255
			zj := u >> 11
			e := float64(zj) * rng.ZigWE[zi]
			if zj >= rng.ZigKE[zi] {
				e = stream.ExpUnitTail(zi, e)
			}
			hold = e * cs.expMean
		} else {
			hold = cs.service.Sample(stream)
		}
		// flatPush
		at := now + hold
		if m := depMin; m >= 0 && at < depAt[m] {
			depMin = len(depAt)
		}
		depAt = append(depAt, at)
		depC = append(depC, conn{class: int32(r), slot: slot})
		// Resample the firing class's clock at its new count. As on
		// the blocked path, r is the cached minimum.
		if inv := cs.invRate[k[r]]; inv < 0 {
			nextArr[r] = math.Inf(1)
			naR0 = -1
		} else {
			u := stream.Uint64()
			zi := u & 255
			zj := u >> 11
			e := float64(zj) * rng.ZigWE[zi]
			if zj >= rng.ZigKE[zi] {
				e = stream.ExpUnitTail(zi, e)
			}
			v := now + e*inv
			nextArr[r] = v
			if v < naT1 {
				naT0 = v
			} else {
				naR0 = -1
			}
		}
	}

	if runErr == nil {
		// Horizon reached: final flushes, forced through the clipping
		// slow path (the last spans may cross any number of batches).
		now = end
		curB0 = math.Inf(1)
		win.Add(occTime[occ*batches:(occ+1)*batches], occSince, now, 1)
		occSince = now
		win.Add(fixTime[fixState*batches:(fixState+1)*batches], fixSince, now, 1)
		fixSince = now
		for r := range classes {
			win.Add(kTW[r*batches:(r+1)*batches], kSince[r], now, float64(k[r]))
			kSince[r] = now
		}
	}

	for i := range s.busyIn {
		s.busyIn[i] = busyInM&(1<<uint(i)) != 0
	}
	for i := range s.busyOut {
		s.busyOut[i] = busyOutM&(1<<uint(i)) != 0
	}
	s.now, s.occ, s.occSince, s.fixSince, s.fixState = now, occ, occSince, fixSince, fixState
	s.curB, s.curB0, s.curB1 = curB, curB0, curB1
	s.depMin, s.depAt, s.depC = depMin, depAt, depC
	s.free = free
	s.events = events
	return runErr
}
