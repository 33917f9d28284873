package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"smartsock/internal/core"
	"smartsock/internal/monitor"
	"smartsock/internal/obs"
	"smartsock/internal/overload"
	"smartsock/internal/store"
	"smartsock/internal/transport"
	"smartsock/internal/wizard"
)

// Deployment tuning: what cmd/sysmond and cmd/wizardd apply at their
// default flags. Fields whose daemon default is their zero value are
// left unset.
const (
	udpBatch        = 32                   // -udp-batch
	udpShards       = 1                    // -shards
	missedIntervals = 3                    // sysmond -missed
	maxQueue        = 1024                 // wizardd -max-queue
	codelTarget     = 5 * time.Millisecond // wizardd -codel-target
)

// deployment is the whole system in this process, over real loopback
// sockets: a monitor node (monitor + transmitter, as sysmond runs
// them) and a wizard node (receiver + overload gate + selector +
// wizard, as wizardd runs them), each with its own metrics registry.
type deployment struct {
	monReg, wizReg *obs.Registry
	monDB, wizDB   *store.DB
	mon            *monitor.Monitor
	tx             *transport.Transmitter
	recv           *transport.Receiver
	wz             *wizard.Wizard
	interval       time.Duration

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func boot(interval time.Duration) (*deployment, error) {
	d := &deployment{
		monReg:   obs.NewRegistry(),
		wizReg:   obs.NewRegistry(),
		monDB:    store.New(),
		wizDB:    store.New(),
		interval: interval,
	}
	d.monDB.RegisterObs(d.monReg, "monitor")
	d.wizDB.RegisterObs(d.wizReg, "wizard")
	var err error
	d.mon, err = monitor.New(monitor.Config{
		Addr:            "127.0.0.1:0",
		DB:              d.monDB,
		Interval:        interval,
		MissedIntervals: missedIntervals,
		Batch:           udpBatch,
		Shards:          udpShards,
		Obs:             d.monReg,
	})
	if err != nil {
		return nil, err
	}
	d.tx, err = transport.NewTransmitterObs(d.monDB, nil, d.monReg)
	if err != nil {
		return nil, err
	}
	gate := overload.New(overload.Config{MaxQueue: maxQueue, Target: codelTarget, Obs: d.wizReg})
	d.recv, err = transport.NewReceiverObs(d.wizDB, "127.0.0.1:0", nil, d.wizReg)
	if err != nil {
		return nil, err
	}
	d.recv.Overload = gate
	sel, err := core.New(d.wizDB, core.Config{Obs: d.wizReg})
	if err != nil {
		return nil, err
	}
	d.wz, err = wizard.New(wizard.Config{
		Addr:     "127.0.0.1:0",
		Selector: sel,
		Batch:    udpBatch,
		Shards:   udpShards,
		Overload: gate,
		Obs:      d.wizReg,
	})
	if err != nil {
		return nil, err
	}
	d.ctx, d.cancel = context.WithCancel(context.Background())
	d.spawn(func() { _ = d.mon.Run(d.ctx) })
	d.spawn(func() { _ = d.recv.Run(d.ctx) })
	d.spawn(func() { _ = d.wz.Run(d.ctx) })
	return d, nil
}

func (d *deployment) spawn(fn func()) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		fn()
	}()
}

// startTransmitter begins the monitor node's push loop. The first push
// is immediate: a full snapshot, then deltas every interval.
func (d *deployment) startTransmitter() {
	d.spawn(func() { _ = d.tx.RunActive(d.ctx, d.recv.Addr(), d.interval) })
}

// handled counts the reports the monitor has taken off its socket,
// decoded or dropped as malformed.
func (d *deployment) handled() uint64 { return d.mon.Received() + d.mon.Dropped() }

func (d *deployment) stop() {
	d.cancel()
	d.wg.Wait()
}

// waitFor polls cond every 50 µs until it holds or timeout passes.
func waitFor(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("e2ebench: timed out waiting for %s", what)
		}
		pause(50 * time.Microsecond)
	}
	return nil
}

// services are the TCP endpoints fleet hosts stand for: each accepts
// connections and holds them until the client closes.
type services struct {
	mu     sync.Mutex
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

func (s *services) listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.lns = append(s.lns, ln)
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				_ = c.Close()
				continue
			}
			s.conns[c] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				// Held until the client closes; the read error is the
				// close itself.
				_, _ = io.Copy(io.Discard, c)
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				_ = c.Close()
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// closedPort binds an address and releases it at once, yielding an
// address nothing listens on: a zombie host's service.
func closedPort(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	a := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", err
	}
	return a, nil
}

func (s *services) close() {
	s.mu.Lock()
	s.closed = true
	for _, ln := range s.lns {
		_ = ln.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
