// Command e2ebench is the repository's end-to-end benchmark. It runs
// the whole smart-socket system in one process over real loopback
// sockets — probe fleet → monitor → transport transmitter/receiver →
// wizard-side store → index/core → wizard → smartsock client → TCP
// service endpoints — drives one seeded workload against it, checks
// every reply against the fleet's ground truth, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// one JSON object on the last line of standard output.
//
//	go run . --workload connect_testbed --seed 1 --seconds 30 --trace 0
//
// run.sh builds and runs it from a checkout's root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"smartsock"
	"smartsock/internal/proto"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: connect_testbed, select_fleet or storm_open")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input derives from")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured window length in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run, printing per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive")
		return 2
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	res, err := runWorkload(w, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "e2ebench: metric %s has no finite value\n", name)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench is one run's state.
type bench struct {
	w    *workload
	o    options
	log  io.Writer
	in   *inputs
	fl   *fleet
	cn   *canary
	or   *oracle
	tr   *tracer
	dep  *deployment
	cs   *clientSide
	loop *closedLoop

	setups  []float64 // s
	sb      scoreboard
	peakRSS float64 // MB, when the scored phases ended
	retries int     // stretches measured again by the validity guards
	// Closed-loop slices, and those left untimed for their steal.
	slices, untimed int

	// The open-loop generator, over every stretch it ran.
	late                    []float64 // ms, each stretch's p99 send lateness
	olSent, olOK            int
	olReplies, olReplyBytes int
	olTime                  time.Duration
	maxRate                 float64
	window                  windowStats
}

func runWorkload(w *workload, o options, log io.Writer) (*result, error) {
	b := &bench{w: w, o: o, log: log}
	if o.trace {
		b.tr = new(tracer)
	}
	svc := new(services)
	defer svc.close()
	in, err := w.build(rand.New(rand.NewSource(o.seed)), rand.New(rand.NewSource(o.seed^0x5eed)), svc)
	if err != nil {
		return nil, err
	}
	b.in = in
	b.cn = newCanary(0, in.hosts[0].name, b.tr)
	b.fl = &fleet{
		hosts:     in.hosts,
		interval:  w.interval,
		churn:     w.churn,
		canary:    b.cn,
		flipEvery: w.interval + w.interval/10,
		rng:       rand.New(rand.NewSource(o.seed ^ 0xf1ee7)),
		tr:        b.tr,
	}
	window := int64(missedIntervals+1) * int64(w.interval)
	b.or = newOracle(b.fl, window, log)

	if err := b.boot(); err != nil {
		return nil, err
	}
	defer b.dep.stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conn, err := net.Dial("udp", b.dep.mon.Addr())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	var fleetErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fleetErr = b.fl.run(ctx, conn, b.dep.handled)
	}()
	err = b.measure(ctx)
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if fleetErr != nil {
		return nil, fleetErr
	}
	return b.result(), nil
}

// boot measures set-up: it boots deployments one after another,
// records how long each of the timed ones took, and keeps the last
// running as b.dep. Every boot starts from a forced collection and
// runs with the collector off. The boots share the benchmark's heap,
// and with the collector on, whether a cycle fell inside a boot and
// whether the runtime had handed the last boot's pages back to the OS
// hung on that heap rather than on the boot: the same boot took from
// under 1 ms to over 3 ms.
func (b *bench) boot() error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Boots in the first half second are discarded: right after the
	// process starts, the first few ran three to six times slower than
	// the rest.
	for warm := time.Now(); time.Since(warm) < 500*time.Millisecond; {
		runtime.GC()
		dep, _, err := b.setup()
		if err != nil {
			return err
		}
		dep.stop()
	}
	for i := 0; i < b.w.setups; i++ {
		runtime.GC()
		dep, took, err := b.setup()
		if err != nil {
			return err
		}
		b.setups = append(b.setups, took.Seconds())
		if i < b.w.setups-1 {
			dep.stop()
			continue
		}
		b.dep = dep
	}
	return nil
}

// setup boots a deployment and returns once the wizard answers from the
// full fleet: every host's first report ingested, the transmitter's
// first snapshot mirrored, and a query over the indexed fields answered.
func (b *bench) setup() (*deployment, time.Duration, error) {
	start := time.Now()
	dep, err := boot(b.w.interval)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*deployment, time.Duration, error) {
		dep.stop()
		return nil, 0, err
	}
	conn, err := net.Dial("udp", dep.mon.Addr())
	if err != nil {
		return fail(err)
	}
	defer conn.Close()
	known := func(host string) bool {
		_, ok := dep.monDB.GetSys(host)
		return ok
	}
	if err := b.fl.sweep(conn, dep.handled, known); err != nil {
		return fail(err)
	}
	n := len(b.in.hosts)
	if err := waitFor(30*time.Second, "the monitor to ingest the fleet", func() bool { return dep.monDB.SysLen() == n }); err != nil {
		return fail(err)
	}
	dep.startTransmitter()
	if err := waitFor(30*time.Second, "the wizard mirror to hold the fleet", func() bool { return dep.wizDB.SysLen() == n }); err != nil {
		return fail(err)
	}
	client, err := smartsock.NewClient(dep.wz.Addr(), nil)
	if err != nil {
		return fail(err)
	}
	servers, err := client.RequestServers(context.Background(), b.in.setupQuery, 1)
	if err != nil {
		return fail(fmt.Errorf("set-up query: %w", err))
	}
	took := time.Since(start)
	if len(servers) != 1 {
		return fail(fmt.Errorf("set-up query returned %d servers", len(servers)))
	}
	// The health check: the mirror holds exactly the fleet.
	if got := dep.wizDB.SysLen(); got != n {
		return fail(fmt.Errorf("wizard table holds %d hosts, fleet has %d", got, n))
	}
	return dep, took, nil
}

// measure runs the workload's phases over --seconds.
func (b *bench) measure(ctx context.Context) error {
	total := time.Duration(b.o.seconds * float64(time.Second))
	b.cs = &clientSide{routes: b.in.routes, hostIdx: b.or.hostIdx, tr: b.tr}
	loop, err := newClosedLoop(b.dep.wz.Addr(), b.cs, b.cn)
	if err != nil {
		return err
	}
	loop.check = b.checkReplies
	b.loop = loop
	if b.tr != nil {
		if loop.replay, err = newReplayer(b.dep.wizDB); err != nil {
			return err
		}
		b.dep.spawn(func() { _ = loop.replay.wz.Run(b.dep.ctx) })
	}

	// Warm-up: caches fill and lazy set-up finishes before timing.
	loop.run(ctx, min(time.Second, total/5), b.in.next, false)
	b.cs.sheds, b.cs.replies, b.cs.replyBytes = 0, 0, 0

	monBefore, wizBefore := b.dep.monReg.Snapshot(), b.dep.wizReg.Snapshot()
	procBefore, ticksBefore := sampleProc(), readCPUTicks()
	sentBefore := b.fl.sent.Load()
	b.cn.recording.Store(true)
	b.fl.tracking.Store(true)
	var toggle sync.WaitGroup
	stopToggle := make(chan struct{})
	if b.tr != nil {
		// Tracing alternates on and off so the traced run also measures
		// its own overhead against untraced operations.
		b.tr.enabled.Store(true)
		toggle.Add(1)
		go func() {
			defer toggle.Done()
			t := time.NewTicker(250 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopToggle:
					return
				case <-t.C:
					b.tr.enabled.Store(!b.tr.enabled.Load())
				}
			}
		}()
	}

	err = b.phases(ctx, total)

	close(stopToggle)
	toggle.Wait()
	if b.tr != nil {
		b.tr.enabled.Store(false)
	}
	b.cn.recording.Store(false)
	b.fl.tracking.Store(false)
	procAfter, ticksAfter := sampleProc(), readCPUTicks()
	monAfter, wizAfter := b.dep.monReg.Snapshot(), b.dep.wizReg.Snapshot()
	if err != nil {
		return err
	}
	b.window = windowStats{
		mon:      obsWindow{monBefore, monAfter},
		wiz:      obsWindow{wizBefore, wizAfter},
		proc:     [2]procSample{procBefore, procAfter},
		sent:     float64(b.fl.sent.Load() - sentBefore),
		fleetLag: float64(b.fl.lateWorst.Load()) / 1e6,
		steal:    stealShare(ticksBefore, ticksAfter),
	}
	return nil
}

func (b *bench) phases(ctx context.Context, total time.Duration) error {
	ol, err := b.openLoop()
	if err != nil {
		return err
	}
	// Closed-loop stretches alternate with the fixed rates, so each kind
	// samples the whole window rather than one end of it.
	chunks := max(len(b.w.fixedRates), 1)
	closedD := time.Duration(b.w.closedShare * float64(total) / float64(chunks))
	for i := 0; i < chunks; i++ {
		b.closedPhase(ctx, closedD)
		if i < len(b.w.fixedRates) {
			// Every rate is offered for the same number of requests, so
			// the tail estimate is not just the highest rate's.
			rate := b.w.fixedRates[i]
			d := time.Duration((1 - b.w.closedShare) * float64(total) / rate / inverseSum(b.w.fixedRates))
			if err := b.fixedPhase(ol, rate, d); err != nil {
				return err
			}
		}
	}
	b.peakRSS = peakRSSMB()
	if b.tr == nil {
		return nil
	}
	// The rate search drives the wizard past saturation on purpose, so
	// it runs only in the traced run, after everything the end-to-end
	// metrics are taken from.
	if err := ol.open(); err != nil {
		return err
	}
	defer ol.close()
	search := time.Duration(b.w.searchShare * float64(total))
	probes := max(int(search/(b.w.probe+b.w.slo.drain())), 2)
	var closed bool
	b.maxRate, closed = stepSearch(b.w.searchFrom, probes, func(rate float64) bool {
		ph := ol.run(rate, b.w.probe, b.w.slo, b.in.olPick)
		b.noteOpenLoop(ph, b.w.probe)
		good, _ := b.checkPhase(ol, ph)
		lat := quantile(ph.lat, b.w.slo.q)
		pass := ph.sent > 0 && float64(good) >= 0.99*float64(len(ph.slots)) &&
			lat <= ms(b.w.slo.limit) && !ph.growing
		fmt.Fprintf(b.log, "  probe %6.0f req/s: %d/%d correct, p%.0f %.2f ms, growing %v → %v\n",
			rate, good, len(ph.slots), 100*b.w.slo.q, lat, ph.growing, pass)
		return pass
	})
	if !closed {
		fmt.Fprintf(b.log, "warning: the rate search ran out of probes before bracketing the limit\n")
	}
	return nil
}

func (b *bench) openLoop() (*openLoop, error) {
	reqs := make([]olRequest, len(b.in.olTexts))
	for i, s := range b.in.olTexts {
		t, err := b.or.text(s.text)
		if err != nil {
			return nil, err
		}
		var opt proto.Option
		for _, x := range s.opts {
			opt |= x
		}
		reqs[i] = newOLRequest(t, s.n, opt)
	}
	return &openLoop{wizard: b.dep.wz.Addr(), reqs: reqs, hostIdx: b.or.hostIdx, canary: b.cn}, nil
}
