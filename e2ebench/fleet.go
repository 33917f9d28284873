package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"smartsock/internal/status"
)

// hostVals are the status fields the probe fleet walks; everything
// else in a host's report is fixed for the run.
type hostVals struct {
	idle, user, sys, load1, memFreeMB, diskWReq float64
}

// truthEntry is one status the fleet reported for a host, valid from
// the moment its report was sent until the host's next entry.
type truthEntry struct {
	at int64 // unix nanoseconds of the send
	v  hostVals
}

type fleetHost struct {
	name     string // ServerStatus.Host: the host's dialable address
	bogomips float64
	memTotal uint64 // bytes
	v        hostVals
	// walk moves v to the host's next status; it is called for every
	// report that carries a change.
	walk    func(v *hostVals, rng *rand.Rand)
	history []truthEntry
}

// status renders the report a host sends for the values v. The oracle
// rebuilds the same report from a truth entry, so both sides see
// bit-identical variables.
func (h *fleetHost) status(v hostVals) status.ServerStatus {
	free := uint64(v.memFreeMB * (1 << 20))
	if free > h.memTotal {
		free = h.memTotal
	}
	return status.ServerStatus{
		Host:      h.name,
		Load1:     v.load1,
		Load5:     v.load1,
		Load15:    v.load1,
		CPUUser:   v.user,
		CPUSystem: v.sys,
		CPUIdle:   v.idle,
		Bogomips:  h.bogomips,
		MemTotal:  h.memTotal,
		MemUsed:   h.memTotal - free,
		MemFree:   free,
		DiskWReq:  v.diskWReq,
		NetIface:  "eth0",
	}
}

// canary is the status-lag probe: one real fleet host whose
// host_disk_wreq flips between two marker values no other host
// reports. Pollers ask for the marker of the latest flip; the lag is
// the time from sending the flipped report to the first reply that
// names the canary. The fleet flips again only once the previous flip
// has been seen, so the two alternating markers are never ambiguous.
type canary struct {
	host    int
	name    string
	markers [2]float64
	polls   [2]string // requirement texts only markers[i] satisfies

	flips     atomic.Uint64 // flips sent
	flipAt    atomic.Int64  // send time of the latest flip, unix ns
	seen      atomic.Uint64 // flips observed by a poller
	recording atomic.Bool
	tr        *tracer

	mu   sync.Mutex
	lags []float64 // ms, flips sent while recording
}

func newCanary(host int, name string, tr *tracer) *canary {
	return &canary{
		host:    host,
		name:    name,
		tr:      tr,
		markers: [2]float64{9001, 9002},
		polls: [2]string{
			"host_disk_wreq > 9000.5\nhost_disk_wreq < 9001.5\n",
			"host_disk_wreq > 9001.5\n",
		},
	}
}

// marker is the canary's current host_disk_wreq.
func (c *canary) marker() float64 { return c.markers[c.flips.Load()%2] }

// pending reports the flip a poller should look for, if any.
func (c *canary) pending() (flip uint64, text string, ok bool) {
	f := c.flips.Load()
	if f == 0 || c.seen.Load() >= f {
		return 0, "", false
	}
	return f, c.polls[f%2], true
}

// observe records that a reply received at t named the canary while
// flip was pending.
func (c *canary) observe(flip uint64, t time.Time) {
	if !c.seen.CompareAndSwap(flip-1, flip) {
		return
	}
	if !c.recording.Load() {
		return
	}
	at := c.flipAt.Load()
	if c.tr.on() {
		c.tr.span(c.tr.newOp(), spanCanary, time.Unix(0, at), t)
	}
	lag := float64(t.UnixNano()-at) / 1e6
	c.mu.Lock()
	c.lags = append(c.lags, lag)
	c.mu.Unlock()
}

func (c *canary) takeLags() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.lags
	c.lags = nil
	return out
}

// fleet is the probe fleet: one goroutine that walks every host's
// status on a seeded schedule and sends each report to the monitor
// over UDP with status.EncodeReport, as real probes do.
type fleet struct {
	hosts    []*fleetHost
	interval time.Duration
	// churn is how many hosts change value per interval; the rest
	// refresh. Negative means every report carries a change.
	churn  int
	canary *canary
	// flipEvery spaces canary flips slightly wider than the transport
	// epoch, so successive flips land at evenly spread phases of it.
	flipEvery time.Duration
	rng       *rand.Rand
	tr        *tracer

	// waits counts the scheduled reports that waited for the monitor
	// to drain the ingest window; rebases counts windows given up as
	// lost.
	waits, rebases atomic.Uint64

	sent atomic.Uint64
	// Worst lateness against the schedule while tracking, ns: lateMax
	// since the validity guard last reset it, lateWorst over the window.
	lateMax, lateWorst atomic.Int64
	tracking           atomic.Bool

	// histMu orders history appends (the fleet goroutine) against the
	// oracle's reads.
	histMu sync.RWMutex
}

// encodeSend encodes and sends one host's report, recording the truth
// entry first when the values changed.
func (f *fleet) encodeSend(conn net.Conn, h *fleetHost, changed bool, traced bool) error {
	now := time.Now()
	if changed || len(h.history) == 0 {
		f.histMu.Lock()
		h.history = append(h.history, truthEntry{at: now.UnixNano(), v: h.v})
		f.histMu.Unlock()
	}
	st := h.status(h.v)
	msg := status.EncodeReport(&st)
	sent := time.Now()
	_, err := conn.Write(msg)
	if traced {
		id := f.tr.newOp()
		f.tr.span(id, spanEncode, now, sent)
		f.tr.span(id, spanSend, sent, time.Now())
	}
	if err != nil {
		return fmt.Errorf("fleet: send report: %w", err)
	}
	f.sent.Add(1)
	return nil
}

// ingestWindow bounds the reports in flight between the fleet and the
// monitor's ingest loop. The monitor's socket keeps the kernel's default
// receive buffer, which holds about 166 reports (17 ms of the 10k/s
// select_fleet stream). The fleet is one goroutine standing in for
// thousands of probes on other hosts, and it shares the process's two
// cores with the monitor, the wizard and the client: when the runtime
// leaves it without a core for 20-40 ms, it wakes with that backlog
// overdue and would release it as one burst while the monitor's
// goroutine still waits for a core, so the kernel dropped ~1% of the
// reports and, now and then, three reports of one host in a row, and
// the monitor expired a live host. With the window the backlog waits
// in the fleet instead: a monitor that ingests too slowly shows as
// fleet lateness and status lag, not as lost reports.
const ingestWindow = 128

// gate waits until the monitor has taken all but ingestWindow of the
// reports sent since base off its socket; handled counts the reports
// it has taken, decoded or not. A report lost on the way never
// arrives, so a window that stays full for 100 ms with no progress is
// counted lost and the base moves past it.
func (f *fleet) gate(handled func() uint64, base *[2]uint64) (waited, lost bool) {
	last, since := handled(), time.Now()
	for f.sent.Load()-base[0] > handled()-base[1]+ingestWindow {
		waited = true
		if h := handled(); h != last {
			last, since = h, time.Now()
		} else if time.Since(since) > 100*time.Millisecond {
			base[0], base[1] = f.sent.Load(), h
			return true, true
		}
		pause(50 * time.Microsecond)
	}
	return waited, false
}

// sweep sends the report of every host missing from the monitor's
// table through the ingest window, as fast as the monitor drains them.
// Hosts whose report was lost anyway are sent again until the monitor
// holds the whole fleet.
func (f *fleet) sweep(conn net.Conn, handled func() uint64, known func(host string) bool) error {
	for round := 0; round < 10; round++ {
		start := [2]uint64{f.sent.Load(), handled()}
		base := start
		for _, h := range f.hosts {
			if known(h.name) {
				continue
			}
			f.gate(handled, &base)
			if err := f.encodeSend(conn, h, false, false); err != nil {
				return err
			}
		}
		sent := f.sent.Load() - start[0]
		if sent == 0 {
			return nil
		}
		// Let the last reports land before looking for gaps.
		deadline := time.Now().Add(100 * time.Millisecond)
		for handled()-start[1] < sent && time.Now().Before(deadline) {
			pause(50 * time.Microsecond)
		}
	}
	return fmt.Errorf("fleet: monitor still misses reports after 10 sweeps")
}

// run reports on schedule until ctx ends: host i of n reports at
// i/n of each interval, so the monitor sees a steady stream.
// Every report goes through the ingest window; handled is the
// monitor's count of reports taken off its socket.
func (f *fleet) run(ctx context.Context, conn net.Conn, handled func() uint64) error {
	base := [2]uint64{f.sent.Load(), handled()}
	gate := func() {
		waited, lost := f.gate(handled, &base)
		if waited {
			f.waits.Add(1)
		}
		if lost {
			f.rebases.Add(1)
		}
	}
	n := len(f.hosts)
	slot := f.interval / time.Duration(n)
	start := time.Now()
	nextFlip := start.Add(f.flipEvery)
	changed := make([]bool, n)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for cycle := 0; ; cycle++ {
		if f.churn >= 0 {
			clear(changed)
			for k := 0; k < f.churn; k++ {
				changed[f.rng.Intn(n)] = true
			}
		}
		cycleStart := start.Add(time.Duration(cycle) * f.interval)
		for i, h := range f.hosts {
			due := cycleStart.Add(time.Duration(i) * slot)
			for {
				now := time.Now()
				if f.canary != nil && !now.Before(nextFlip) && f.canary.seen.Load() == f.canary.flips.Load() {
					gate()
					if err := f.flip(conn); err != nil {
						return err
					}
					nextFlip = nextFlip.Add(f.flipEvery)
					if nextFlip.Before(now) {
						nextFlip = now.Add(f.flipEvery)
					}
					continue
				}
				wait := due.Sub(now)
				if wait <= 0 {
					if f.tracking.Load() {
						storeMax(&f.lateMax, int64(-wait))
						storeMax(&f.lateWorst, int64(-wait))
					}
					break
				}
				if f.canary != nil && nextFlip.Sub(now) < wait {
					wait = max(nextFlip.Sub(now), 100*time.Microsecond)
				}
				timer.Reset(wait)
				select {
				case <-ctx.Done():
					return nil
				case <-timer.C:
				}
			}
			gate()
			change := f.churn < 0 || changed[i]
			if change {
				h.walk(&h.v, f.rng)
			}
			if f.canary != nil && i == f.canary.host {
				h.v.diskWReq = f.canary.marker()
			}
			if err := f.encodeSend(conn, h, change, f.tr.on() && (cycle*n+i)%16 == 0); err != nil {
				return err
			}
		}
	}
}

// storeMax raises a to v if v is larger. Only the fleet goroutine
// raises it, so a plain load and store cannot lose a larger value.
func storeMax(a *atomic.Int64, v int64) {
	if v > a.Load() {
		a.Store(v)
	}
}

// flip moves the canary to its other marker and sends the report at
// once, outside its schedule slot.
func (f *fleet) flip(conn net.Conn) error {
	c := f.canary
	h := f.hosts[c.host]
	h.v.diskWReq = c.markers[(c.flips.Load()+1)%2]
	at := time.Now()
	if err := f.encodeSend(conn, h, true, false); err != nil {
		return err
	}
	c.flipAt.Store(at.UnixNano())
	c.flips.Add(1)
	return nil
}

// truthAt returns the host's status in effect at t and whether any
// report had been sent by then.
func (h *fleetHost) truthAt(t int64) (hostVals, bool) {
	i := h.entryAt(t)
	if i < 0 {
		return hostVals{}, false
	}
	return h.history[i].v, true
}

// entryAt finds the last history entry sent at or before t, or -1.
func (h *fleetHost) entryAt(t int64) int {
	lo, hi := 0, len(h.history)
	for lo < hi {
		m := (lo + hi) / 2
		if h.history[m].at <= t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}
