package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"smartsock/internal/proto"
	"smartsock/internal/testbed"
)

// slo is the latency limit an offered rate must meet to count toward
// max_rps_under_slo: the q-quantile of request latency, timed from
// when each request was due, within limit.
type slo struct {
	q     float64
	limit time.Duration
}

// drain is how long an open-loop stretch waits for stragglers.
func (s slo) drain() time.Duration { return 2*s.limit + 50*time.Millisecond }

// workload is one traffic mix against one fleet. The timed window of
// --seconds holds a closed-loop client for closedShare of it and the
// fixed open-loop rates for the rest, each rate after an equal slice
// of the closed loop. A traced run then adds an open-loop step search
// of searchShare × --seconds for the highest rate under the SLO.
type workload struct {
	name, why string
	interval  time.Duration // probe, monitor and transmitter interval (sysmond -interval)
	churn     int           // hosts changing value per interval; negative: every report
	setups    int           // deployments booted to measure setup_s
	// build derives the run's inputs from its seed: rng lays out the
	// fleet and texts, pick drives the load generators.
	build func(rng, pick *rand.Rand, svc *services) (*inputs, error)

	closedShare float64
	fixedRates  []float64 // open-loop requests/s
	searchShare float64
	searchFrom  float64 // first offered rate of the step search
	probe       time.Duration
	slo         slo
	// lateBound is the open-loop generator's own validity bound: a
	// fixed-rate stretch whose send lateness p99 exceeds it measured
	// the scheduler, not the system, and is run again.
	lateBound time.Duration
}

// inputs are everything a run derives from its seed.
type inputs struct {
	hosts  []*fleetHost
	routes map[string]string
	next   func() opSpec // closed-loop operations
	// The open-loop mix: requests and the picker over them.
	olTexts []opSpec
	olPick  func() int32
	// setupQuery is answered once the mirror holds the full fleet;
	// it touches the indexed fields so the first index build is part
	// of set-up.
	setupQuery string
}

var workloads = []*workload{
	{
		name:        "connect_testbed",
		why:         "Client.Connect on the 11-host Table 5.1 testbed plus a zombie host: client, datagram plane and TCP dials dominate; selection is trivial and memo hits are common",
		interval:    100 * time.Millisecond,
		churn:       -1,
		setups:      1000,
		build:       buildTestbed(true),
		closedShare: 1,
		searchShare: 0.3,
		searchFrom:  20000,
		probe:       400 * time.Millisecond,
		slo:         slo{q: 0.99, limit: 20 * time.Millisecond},
	},
	{
		name:        "select_fleet",
		why:         "RequestServers and Connect over a Zipf pool of 1024 texts against 10k hosts reporting every second with 1% churn: core, index and reqlang do the work while deltas flow",
		interval:    time.Second,
		churn:       100,
		setups:      9,
		build:       buildFleet,
		closedShare: 1,
		searchShare: 0.3,
		searchFrom:  50,
		probe:       time.Second,
		slo:         slo{q: 0.90, limit: 100 * time.Millisecond},
	},
	{
		name:        "storm_open",
		why:         "open-loop paced storm of the 5-text cached mix at 4k-12k req/s beside closed-loop Connects: per-datagram and admission cost dominate and selection is bypassed",
		interval:    100 * time.Millisecond,
		churn:       1,
		setups:      1000,
		build:       buildTestbed(false),
		closedShare: 0.6,
		fixedRates:  []float64{4000, 8000, 12000},
		searchShare: 0.3,
		searchFrom:  20000,
		probe:       400 * time.Millisecond,
		slo:         slo{q: 0.99, limit: 20 * time.Millisecond},
		lateBound:   2 * time.Millisecond,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// walk moves x by a normal step and reflects it back into [lo, hi].
func walk(rng *rand.Rand, x, sigma, lo, hi float64) float64 {
	x += rng.NormFloat64() * sigma
	for x < lo || x > hi {
		if x < lo {
			x = 2*lo - x
		}
		if x > hi {
			x = 2*hi - x
		}
	}
	return x
}

// testbedWalk moves a Table 5.1 host's status within its band. Quiet
// hosts always pass the thesis texts' load and CPU limits; busy ones
// cross them.
func testbedWalk(usageLo, usageHi, loadHi, memMB float64) func(v *hostVals, rng *rand.Rand) {
	return func(v *hostVals, rng *rand.Rand) {
		usage := walk(rng, 1-v.idle, 0.01, usageLo, usageHi)
		v.idle = 1 - usage
		v.user = usage * 0.7
		v.sys = usage * 0.3
		v.load1 = walk(rng, v.load1, 0.1, 0, loadHi)
		v.memFreeMB = walk(rng, v.memFreeMB, 0.03*memMB, 0.35*memMB, 0.75*memMB)
		v.diskWReq = walk(rng, v.diskWReq, 2, 0, 100)
	}
}

// Testbed host i listens on 127.0.1.(i+1); the zombie is 127.0.1.12.
var quietTestbed = map[string]bool{"sagit": true, "dalmatian": true, "helene": true, "phoebe": true, "calypso": true, "dione": true}

// buildTestbed makes the 11 Table 5.1 hosts, each named by the address
// of a real loopback listener. With zombie set, a twelfth host keeps
// reporting while nothing listens at its address. The requirement
// texts are the thesis's: Fig 1.4, rank-by-expression, preferred and
// denied lists.
func buildTestbed(zombie bool) func(rng, pick *rand.Rand, svc *services) (*inputs, error) {
	return func(rng, pick *rand.Rand, svc *services) (*inputs, error) {
		in := &inputs{}
		machines := testbed.Machines()
		for i, m := range machines {
			addr, err := svc.listen(fmt.Sprintf("127.0.1.%d:0", i+1))
			if err != nil {
				return nil, err
			}
			in.hosts = append(in.hosts, testbedHost(rng, addr, m.Bogomips, float64(m.RAMMB), quietTestbed[m.Name]))
		}
		if zombie {
			addr, err := closedPort("127.0.1.12:0")
			if err != nil {
				return nil, err
			}
			// Unique 192 MB twin of mimas, so one text qualifies exactly
			// mimas and the zombie and Connect needs its second round.
			in.hosts = append(in.hosts, testbedHost(rng, addr, 3394.76, 192, true))
		}
		fig14 := "# Fig 1.4: well-provisioned, lightly loaded servers\nhost_memory_free >= 100\nhost_cpu_user + host_cpu_system + host_cpu_nice < 0.10\nuser_denied_host1 = hacker.some.net\n"
		largestMem := "# Chapter 6: servers with the largest free memory\nhost_cpu_free > 0.5\nhost_memory_free\n"
		preferred := "# Table 5.3: fast processors, the P4 2.4 boxes first\nhost_cpu_bogomips > 3000\nuser_preferred_host1 = \"127.0.1.9\"\nuser_preferred_host2 = \"127.0.1.2\"\n"
		denied := "host_system_load1 < 2\nuser_denied_host1 = \"127.0.1.2\"\nuser_denied_host2 = \"127.0.1.6\"\n"
		texts := []opSpec{
			{text: fig14},
			{text: largestMem, opts: []proto.Option{proto.OptRankByExpr}},
			{text: preferred},
			{text: denied},
		}
		if zombie {
			texts = append(texts, opSpec{text: "# the 192 MB class: mimas and the zombie\nhost_memory_total > 150\nhost_memory_total < 200\n", opts: []proto.Option{proto.OptPartialOK}})
		} else {
			texts = append(texts, opSpec{text: "host_cpu_free > 0.3\n"})
		}
		in.next = func() opSpec {
			s := texts[pick.Intn(len(texts))]
			s.kind, s.n = opConnect, 2
			return s
		}
		for _, t := range texts {
			t.kind, t.n = opRequest, 2
			in.olTexts = append(in.olTexts, t)
		}
		in.olPick = func() int32 { return int32(pick.Intn(len(texts))) }
		in.setupQuery = "host_cpu_free >= 0\nhost_memory_free >= 0\n"
		return in, nil
	}
}

func testbedHost(rng *rand.Rand, addr string, bogomips, memMB float64, quiet bool) *fleetHost {
	usageHi, loadHi := 0.35, 3.0
	if quiet {
		usageHi, loadHi = 0.08, 1.0
	}
	usage := 0.01 + rng.Float64()*(usageHi-0.01)
	h := &fleetHost{
		name:     addr,
		bogomips: bogomips,
		memTotal: uint64(memMB) << 20,
		v: hostVals{
			idle: 1 - usage, user: usage * 0.7, sys: usage * 0.3,
			load1:     rng.Float64() * loadHi,
			memFreeMB: (0.35 + 0.4*rng.Float64()) * memMB,
			diskWReq:  rng.Float64() * 100,
		},
		walk: testbedWalk(0.01, usageHi, loadHi, memMB),
	}
	return h
}

// fleetSize is select_fleet's host count; the pool holds about four
// times the wizard's 256-entry compile cache.
const (
	fleetSize = 10_000
	poolSize  = 1024
)

// Shapes of select_fleet's requirement texts; the testbed workloads
// leave their texts unshaped.
const (
	shapeNone uint8 = iota
	shapeSelective
	shapeBroad
	shapeMid
	shapeUnindexable
	shapeLists
	numShapes
)

var shapeNames = [numShapes]string{"", "selective", "broad", "mid", "unindexable", "lists"}

// buildFleet makes 10k synthetic hosts at 127.2.x.y:9000, all served
// by one loopback listener through the Dial hook's routes, and a
// Zipf-skewed pool of distinct requirement texts in five shapes:
// selective (~0.5% pass), broad (~80%, ranked by expression), mid,
// unindexable, and preferred/denied lists.
func buildFleet(rng, pick *rand.Rand, svc *services) (*inputs, error) {
	listener, err := svc.listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &inputs{routes: make(map[string]string, fleetSize)}
	redraw := func(v *hostVals, rng *rand.Rand) {
		v.idle = rng.Float64()
		v.user = (1 - v.idle) * 0.7
		v.sys = (1 - v.idle) * 0.3
		v.load1 = rng.Float64() * 8
		v.memFreeMB = 1 + rng.Float64()*511
		v.diskWReq = rng.Float64() * 100
	}
	names := make([]string, fleetSize)
	for i := range names {
		names[i] = fmt.Sprintf("127.2.%d.%d:9000", i/250, i%250+1)
		h := &fleetHost{name: names[i], bogomips: 1000 + rng.Float64()*5000, memTotal: 1 << 30, walk: redraw}
		redraw(&h.v, rng)
		in.hosts = append(in.hosts, h)
		in.routes[names[i]] = listener
	}
	pool := make([]opSpec, poolSize)
	rank := []proto.Option{proto.OptRankByExpr}
	// Shares by rank: selective 30%, broad 15%, mid 40%, unindexable
	// 10%, lists 5%. No measured or cited request mix exists for these
	// shares; they are an assumption, chosen for the statistics:
	// latency sorts the shapes selective < mid < lists < unindexable <
	// broad, so the median falls in the middle of the mid shape and
	// p90 inside the broad one. Where a percentile falls on the edge
	// between two shapes, a few points' shift in the mix moves it a
	// long way, and run-to-run noise is amplified. The traced run
	// reports each shape's share of the closed loop's CPU time
	// (mix.*_cpu_share), so a gain can be read against the mix.
	for i := range pool {
		switch i % 20 {
		case 0, 1, 2, 3, 4, 5:
			pool[i] = opSpec{shape: shapeSelective, text: fmt.Sprintf("host_cpu_free > %.6f\nhost_memory_free > %d\nhost_cpu_free * 100\n", 0.995-1e-6*float64(i), 1+i%64), opts: rank}
		case 6, 7, 8:
			pool[i] = opSpec{shape: shapeBroad, text: fmt.Sprintf("host_cpu_free > %.5f\nhost_cpu_free * 100\n", 0.2+1e-4*float64(i)), opts: rank}
		case 9, 10, 11, 12, 13, 14, 15, 16:
			pool[i] = opSpec{shape: shapeMid, text: fmt.Sprintf("host_system_load1 < %.4f\nhost_memory_free > 256\n", 0.5+1e-4*float64(i))}
		case 17, 18:
			pool[i] = opSpec{shape: shapeUnindexable, text: fmt.Sprintf("host_cpu_free + 0 > %.6f\nhost_memory_free > 1\n", 0.99-1e-6*float64(i))}
		default:
			pool[i] = opSpec{shape: shapeLists, text: fmt.Sprintf("host_cpu_free > 0.9\nuser_preferred_host1 = %q\nuser_denied_host1 = %q\n",
				hostPart(names[rng.Intn(fleetSize)]), hostPart(names[rng.Intn(fleetSize)]))}
		}
	}
	// A shifted Zipf keeps the head flat enough that memo hits stay
	// rare while the compile cache still sees a partial working set.
	zipf := rand.NewZipf(pick, 1.1, 200, poolSize-1)
	in.next = func() opSpec {
		s := pool[zipf.Uint64()]
		if pick.Intn(3) != 0 {
			s.kind, s.n = opConnect, 2
		} else {
			s.kind, s.n = opRequest, 8
		}
		return s
	}
	for _, t := range pool {
		t.kind, t.n = opRequest, 8
		in.olTexts = append(in.olTexts, t)
	}
	in.olPick = func() int32 { return int32(zipf.Uint64()) }
	in.setupQuery = "host_cpu_free >= 0\nhost_memory_free >= 0\nhost_system_load1 >= 0\n"
	return in, nil
}

// stepSearch finds the highest offered rate that passes. It doubles
// the rate from start until a probe fails, then bisects geometrically
// between the highest pass and the lowest failure for as many probes
// as the budget holds, and reports the middle of the final bracket. A
// failing probe is repeated once and counts only if it fails again, so
// one scheduler hiccup on a shared box does not end the climb early.
// ok is false when the budget ran out before the bracket closed.
func stepSearch(start float64, probes int, try func(rate float64) bool) (rate float64, ok bool) {
	lo, hi := 0.0, math.Inf(1)
	rate = start
	for probes > 0 {
		pass := try(rate)
		probes--
		if !pass && probes > 0 {
			pass = try(rate)
			probes--
		}
		if pass {
			lo = rate
		} else {
			hi = rate
		}
		switch {
		case math.IsInf(hi, 1):
			rate *= 2
		case lo == 0:
			rate /= 2
		default:
			rate = math.Sqrt(lo * hi)
		}
	}
	switch {
	case math.IsInf(hi, 1):
		return lo, false
	case lo == 0:
		return hi / 2, false
	}
	return math.Sqrt(lo * hi), true
}
