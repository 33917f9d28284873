package main

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"smartsock/internal/proto"
)

// canaryBit marks a canary poll's sequence number; its low bits carry
// the flip the poll looks for.
const canaryBit = 1 << 31

// olRequest is one requirement of an open-loop mix, pre-marshalled
// with a zero sequence number.
type olRequest struct {
	text  *textInfo
	n     int
	dgram []byte
}

func newOLRequest(t *textInfo, n int, opt proto.Option) olRequest {
	return olRequest{text: t, n: n, dgram: proto.MarshalRequest(&proto.Request{ServerNum: uint16(n), Option: opt, Detail: t.detail})}
}

// olSlot is one scheduled request and what came back for it.
type olSlot struct {
	due    int64 // unix ns the request was due
	req    int32
	recvAt atomic.Int64
	state  atomic.Uint32 // slotPending, slotOK, slotShed, slotErr
	nsrv   uint16
	size   uint16 // reply bytes
	srv    [maxReplyServers]int32
}

const (
	slotPending uint32 = iota
	slotOK
	slotShed
	slotErr
)

// maxReplyServers bounds the servers the open loop keeps per reply;
// every open-loop request asks for at most this many.
const maxReplyServers = 8

// openLoop is a paced generator: one sender goroutine writes requests
// when they are due, whatever the replies do, and one receiver
// goroutine matches replies to requests by sequence number. Both share
// one UDP socket.
type openLoop struct {
	wizard  string
	conn    *net.UDPConn
	reqs    []olRequest
	hostIdx map[string]int32
	canary  *canary
	slots   []olSlot  // reused across stretches
	late    []float64 // reused across stretches
	phase   uint32
}

// olPhase is the outcome of one fixed-rate stretch.
type olPhase struct {
	sent       int
	ok         int
	shed       int
	lost       int // no usable reply: none in time, or an error
	replies    int // replies received, and their bytes
	replyBytes int
	lat        []float64 // ms from due to reply, correct-looking replies
	late       []float64 // ms the sender ran behind schedule
	growing    bool      // latency in the last quarter far above the first
	slots      []olSlot  // valid until the next phase
}

// open dials the generator's socket; each stretch opens its own, so no
// idle socket lingers while the closed-loop client runs.
func (o *openLoop) open() error {
	raddr, err := net.ResolveUDPAddr("udp", o.wizard)
	if err != nil {
		return err
	}
	o.conn, err = net.DialUDP("udp", nil, raddr)
	return err
}

func (o *openLoop) close() error { return o.conn.Close() }

// run offers rate requests per second for d, picking each request's
// text with pick, then waits up to drain for stragglers.
func (o *openLoop) run(rate float64, d time.Duration, s slo, pick func() int32) olPhase {
	drain, growth := s.drain(), s.limit/4
	total := int(rate * d.Seconds())
	if cap(o.slots) < total {
		o.slots = make([]olSlot, total)
	}
	slots := o.slots[:total]
	for i := range slots {
		slots[i].recvAt.Store(0)
		slots[i].state.Store(slotPending)
		slots[i].nsrv = 0
	}
	o.phase++
	base := (o.phase & 0x1f) << 26 // 32 phases of 64M sequence numbers, below canaryBit

	var stop atomic.Bool
	var received atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		o.receive(slots, base, &stop, &received)
	}()

	ph := olPhase{late: o.late[:0], slots: slots}
	buf := make([]byte, 0, 2048)
	var lastPoll time.Time
	period := float64(time.Second) / rate
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(float64(i) * period))
		if wait := time.Until(due); wait > 0 {
			pause(wait)
		}
		now := time.Now()
		ph.late = append(ph.late, ms(now.Sub(due)))
		if flip, text, ok := o.canary.pending(); ok && now.Sub(lastPoll) >= time.Millisecond {
			lastPoll = now
			poll := proto.MarshalRequest(&proto.Request{Seq: canaryBit | uint32(flip&(canaryBit-1)), ServerNum: 1, Option: proto.OptPartialOK, Detail: text})
			// A lost poll is simply retried a millisecond later.
			_, _ = o.conn.Write(poll)
		}
		r := pick()
		s := &slots[i]
		s.due = due.UnixNano()
		s.req = r
		buf = append(buf[:0], o.reqs[r].dgram...)
		binary.BigEndian.PutUint32(buf[1:], base+uint32(i))
		if _, err := o.conn.Write(buf); err == nil {
			ph.sent++
		}
	}
	o.late = ph.late
	deadline := time.Now().Add(drain)
	for received.Load() < int64(ph.sent) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	var first, last []float64
	for i := range slots {
		s := &slots[i]
		if s.state.Load() != slotPending {
			ph.replies++
			ph.replyBytes += int(s.size)
		}
		switch s.state.Load() {
		case slotOK:
			ph.ok++
			l := float64(s.recvAt.Load()-s.due) / 1e6
			ph.lat = append(ph.lat, l)
			if i < total/4 {
				first = append(first, l)
			} else if i >= total-total/4 {
				last = append(last, l)
			}
		case slotShed:
			ph.shed++
		default:
			ph.lost++
		}
	}
	if len(first) > 0 && len(last) > 0 {
		ph.growing = quantile(last, 0.5)-quantile(first, 0.5) > ms(growth)
	}
	return ph
}

// pause blocks the sender for d. time.Sleep rounds short waits up to
// the Go runtime poller's millisecond tick on Linux, which would pace
// the generator in millisecond bursts; nanosleep(2) wakes within the
// kernel's timer slack (about 50 µs), so requests leave one by one.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// An interrupted sleep only ends early; the caller sends when due.
	_ = syscall.Nanosleep(&ts, nil)
}

// receive matches replies to slots until stop is set.
func (o *openLoop) receive(slots []olSlot, base uint32, stop *atomic.Bool, received *atomic.Int64) {
	buf := make([]byte, 64*1024)
	for !stop.Load() {
		// The deadline only paces the stop check.
		_ = o.conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		n, err := o.conn.Read(buf)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue
			}
			return
		}
		now := time.Now().UnixNano()
		reply, err := proto.UnmarshalReply(buf[:n])
		if err != nil {
			continue // its request stays unanswered and counts as lost
		}
		if reply.Seq&canaryBit != 0 {
			if len(reply.Servers) == 1 && reply.Servers[0] == o.canary.name {
				o.canary.observe(uint64(reply.Seq&^canaryBit), time.Unix(0, now))
			}
			continue
		}
		i := int(reply.Seq - base)
		if reply.Seq < base || i >= len(slots) {
			continue // a straggler from an earlier phase
		}
		s := &slots[i]
		if s.state.Load() != slotPending {
			continue
		}
		received.Add(1)
		s.recvAt.Store(now)
		s.size = uint16(n)
		if reply.Err != "" {
			if _, shed := proto.RetryAfter(reply.Err); shed {
				s.state.Store(slotShed)
			} else {
				s.state.Store(slotErr)
			}
			continue
		}
		for k, name := range reply.Servers[:min(len(reply.Servers), maxReplyServers)] {
			idx, ok := o.hostIdx[name]
			if !ok {
				idx = -1
			}
			s.srv[k] = idx
		}
		s.nsrv = uint16(len(reply.Servers))
		s.state.Store(slotOK)
	}
}
