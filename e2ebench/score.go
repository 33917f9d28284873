package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"
)

// scoreboard accumulates the outcome of the scored phases: the closed
// loop and the fixed open-loop rates.
type scoreboard struct {
	attempted, failed, correct int
	// perSec holds the correct closed-loop operations of each timed
	// one-second slice; goodput is their median, so a stall of the
	// shared host costs one second, not the run. Fixed rates are left
	// out: below capacity an open loop's goodput is its offered rate.
	perSec    []float64
	time, cpu time.Duration

	connectLat []float64 // ms, successful Connects
	rtt        []float64 // ms, wizard exchanges of scored closed-loop operations
	openLat    []float64 // ms, correct fixed-rate requests, timed from when due
	dials      []float64 // ms, successful TCP dials
	dialFails  int
	connectOps int
	// secondRounds counts Connects that asked the wizard twice.
	secondRounds int
	resends      int
	ops          int // closed-loop operations completed
	// shapeCPU is the process CPU spent while operations of each
	// requirement shape ran.
	shapeCPU [numShapes]time.Duration
	// Latencies by tracing state, for the traced run's overhead: index
	// 0 is Connect, 1 is the wizard exchange. Untraced runs leave them
	// empty.
	traceOn, traceOff [2][]float64
}

func (s *scoreboard) add(o scoreboard) {
	s.count(o)
	s.correct += o.correct
	s.perSec = append(s.perSec, o.perSec...)
	s.time += o.time
	s.cpu += o.cpu
	s.connectLat = append(s.connectLat, o.connectLat...)
	s.rtt = append(s.rtt, o.rtt...)
	s.openLat = append(s.openLat, o.openLat...)
	s.dials = append(s.dials, o.dials...)
	s.dialFails += o.dialFails
	s.connectOps += o.connectOps
	s.secondRounds += o.secondRounds
	s.resends += o.resends
	for i := range s.shapeCPU {
		s.shapeCPU[i] += o.shapeCPU[i]
	}
	for i := range s.traceOn {
		s.traceOn[i] = append(s.traceOn[i], o.traceOn[i]...)
		s.traceOff[i] = append(s.traceOff[i], o.traceOff[i]...)
	}
}

// addAll adds every scoreboard in sbs after growing each sample series
// once to its final length. Added one by one, the series doubled
// several times at the end of a phase and left each old copy as
// garbage, which moved peak_rss_mb by megabytes from run to run.
func (s *scoreboard) addAll(sbs []scoreboard) {
	series := func(sb *scoreboard) []*[]float64 {
		return []*[]float64{&sb.perSec, &sb.connectLat, &sb.rtt, &sb.openLat, &sb.dials,
			&sb.traceOn[0], &sb.traceOn[1], &sb.traceOff[0], &sb.traceOff[1]}
	}
	dst := series(s)
	for i, d := range dst {
		n := 0
		for j := range sbs {
			n += len(*series(&sbs[j])[i])
		}
		*d = slices.Grow(*d, n)
	}
	for _, o := range sbs {
		s.add(o)
	}
}

// count adds only o's operation counts: a stretch whose timing is not
// scored still counts what it attempted and what failed.
func (s *scoreboard) count(o scoreboard) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.ops += o.ops
}

func (s *scoreboard) traced(on bool, which int, v float64) {
	if on {
		s.traceOn[which] = append(s.traceOn[which], v)
	} else {
		s.traceOff[which] = append(s.traceOff[which], v)
	}
}

// closedSlice is one slice of the closed loop and the share of the
// host's CPU time the hypervisor stole while it ran.
type closedSlice struct {
	sb    scoreboard
	steal float64
}

// closedPhase runs the closed-loop client for d in slices of about a
// second. The hypervisor of a shared host steals CPU from the VM in
// bursts of a few seconds, and a burst slows everything in the VM far
// beyond the stolen time: on a shared two-core VM, select_fleet runs
// with 2-9% steal had a request p90 25-50% above runs with under 1%.
// So only the slices whose steal share is at most the phase's median
// are timed. Every slice counts what it attempted and what failed.
func (b *bench) closedPhase(ctx context.Context, d time.Duration) {
	n := max(int(d/time.Second), 1)
	slices := make([]closedSlice, n)
	steals := make([]float64, n)
	for i := range slices {
		slices[i] = b.runClosedSlice(ctx, d/time.Duration(n))
		steals[i] = slices[i].steal
	}
	cut := quantile(steals, 0.5)
	timed := make([]scoreboard, 0, n)
	for _, s := range slices {
		if s.steal <= cut {
			timed = append(timed, s.sb)
		} else {
			b.sb.count(s.sb)
			b.untimed++
		}
		b.slices++
	}
	b.sb.addAll(timed)
}

// runClosedSlice runs the closed-loop client for d and scores each
// operation as it ends. If the probe fleet falls behind its report
// schedule by more than half an interval, the slice measured the
// shared host's scheduler, not the system, and it runs again, at most
// twice.
func (b *bench) runClosedSlice(ctx context.Context, d time.Duration) closedSlice {
	for attempt := 0; ; attempt++ {
		var st scoreboard
		b.loop.score = func(op opRecord, correct bool, xs []exchange) {
			st.ops++
			st.attempted++
			st.shapeCPU[op.shape] += op.cpu
			for _, x := range xs {
				st.resends += int(x.writes) - 1
				if !x.failed {
					st.rtt = append(st.rtt, ms(x.rtt))
					if b.tr != nil {
						st.traced(op.traced, 1, ms(x.rtt))
					}
				}
			}
			if op.kind == opConnect {
				st.connectOps++
				if len(xs) > 1 {
					st.secondRounds++
				}
			}
			st.dials = append(st.dials, b.cs.dials...)
			st.dialFails += b.cs.dialFails
			b.cs.dials, b.cs.dialFails = b.cs.dials[:0], 0
			if op.err != nil || !correct {
				st.failed++
				if op.err != nil && st.failed <= 20 {
					fmt.Fprintf(b.log, "operation failed: %v\n", op.err)
				}
				return
			}
			st.correct++
			if op.kind == opConnect {
				st.connectLat = append(st.connectLat, ms(op.lat))
				if b.tr != nil {
					st.traced(op.traced, 0, ms(op.lat))
				}
			}
		}
		b.fl.lateMax.Store(0)
		t0, p0 := readCPUTicks(), sampleProc()
		b.loop.run(ctx, d, b.in.next, true)
		p1, t1 := sampleProc(), readCPUTicks()
		if late := time.Duration(b.fl.lateMax.Load()); late > b.w.interval/2 && attempt < 2 {
			b.retries++
			fmt.Fprintf(b.log, "closed loop: probe fleet ran %v behind schedule; measuring again\n", late)
			continue
		}
		secs := p1.at.Sub(p0.at).Seconds()
		st.time, st.cpu = p1.at.Sub(p0.at), p1.cpu-p0.cpu
		st.perSec = []float64{float64(st.correct) / secs}
		return closedSlice{sb: st, steal: stealShare(t0, t1)}
	}
}

// checkReplies runs the oracle over a closed-loop operation's replies
// and reports whether every one was right.
func (b *bench) checkReplies(xs []exchange) bool {
	b.fl.histMu.RLock()
	defer b.fl.histMu.RUnlock()
	ok := true
	var buf [maxReplyServers]string
	for _, x := range xs {
		if x.failed {
			continue // the operation reports the error
		}
		t, err := b.or.text(b.cs.texts[x.text])
		if err != nil {
			fmt.Fprintf(b.log, "oracle: %v\n", err)
			ok = false
			continue
		}
		asked, err := b.or.text(b.cs.texts[x.asked])
		if err != nil {
			fmt.Fprintf(b.log, "oracle: %v\n", err)
			ok = false
			continue
		}
		if !b.or.check(t, asked, int(x.n), x.at, b.names(buf[:0], x.srv[:], int(x.nsrv))) {
			ok = false
		}
	}
	return ok
}

// names renders a reply's server indexes as fleet host names; "?"
// stands for a name outside the fleet or past the kept servers.
func (b *bench) names(dst []string, srv []int32, count int) []string {
	for i := 0; i < count; i++ {
		name := "?"
		if i < len(srv) && srv[i] >= 0 {
			name = b.fl.hosts[srv[i]].name
		}
		dst = append(dst, name)
	}
	return dst
}

// fixedPhase offers one fixed rate for d and scores it. A stretch whose
// generator ran later than the workload's bound measured the shared
// host's scheduler, not the system: it is measured again, up to three
// times in all, and the stretch whose generator kept time best is the
// one scored. Every attempt's replies go through the oracle.
func (b *bench) fixedPhase(ol *openLoop, rate float64, d time.Duration) error {
	if err := ol.open(); err != nil {
		return err
	}
	defer ol.close()
	var best scoreboard
	bestLate := math.Inf(1)
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			b.retries++
			fmt.Fprintf(b.log, "open loop at %.0f req/s: generator p99 %.2f ms late; measuring again\n", rate, bestLate)
		}
		p0 := sampleProc()
		ph := ol.run(rate, d, b.w.slo, b.in.olPick)
		p1 := sampleProc()
		b.noteOpenLoop(ph, d)
		good, lat := b.checkPhase(ol, ph)
		late := quantile(ph.late, 0.99)
		fmt.Fprintf(b.log, "  fixed %6.0f req/s: %d/%d correct, %d shed, %d lost, p50 %.3f ms, p90 %.3f ms, sender p99 %.3f ms late\n",
			rate, good, len(ph.slots), ph.shed, ph.lost, quantile(lat, 0.5), windowedTail(lat, 0.9), late)
		if late < bestLate {
			bestLate = late
			best = scoreboard{
				attempted: len(ph.slots),
				failed:    len(ph.slots) - good,
				correct:   good,
				time:      d,
				cpu:       p1.cpu - p0.cpu,
				openLat:   lat,
			}
		}
		if late <= ms(b.w.lateBound) {
			break
		}
	}
	b.sb.add(best)
	return nil
}

func (b *bench) noteOpenLoop(ph olPhase, d time.Duration) {
	b.late = append(b.late, quantile(ph.late, 0.99))
	b.olSent += ph.sent
	b.olOK += ph.ok
	b.olReplies += ph.replies
	b.olReplyBytes += ph.replyBytes
	b.olTime += d
}

// checkPhase runs the oracle over an open-loop stretch's replies and
// returns how many requests got a correct answer, with their latencies.
func (b *bench) checkPhase(ol *openLoop, ph olPhase) (good int, lat []float64) {
	var buf [maxReplyServers]string
	b.fl.histMu.RLock()
	defer b.fl.histMu.RUnlock()
	for i := range ph.slots {
		s := &ph.slots[i]
		if s.state.Load() != slotOK {
			continue
		}
		req := ol.reqs[s.req]
		if b.or.check(req.text, req.text, req.n, s.recvAt.Load(), b.names(buf[:0], s.srv[:], int(s.nsrv))) {
			good++
			lat = append(lat, float64(s.recvAt.Load()-s.due)/1e6)
		}
	}
	return good, lat
}

// windowStats holds the registry and process deltas over the timed
// window.
type windowStats struct {
	mon, wiz obsWindow
	proc     [2]procSample
	sent     float64 // reports the fleet sent
	fleetLag float64 // ms, worst report lateness
	steal    float64 // share of the host's CPU time the hypervisor stole
}
