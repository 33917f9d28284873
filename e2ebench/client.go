package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"time"

	"smartsock"
	"smartsock/internal/core"
	"smartsock/internal/obs"
	"smartsock/internal/proto"
	"smartsock/internal/reqlang"
	"smartsock/internal/store"
	"smartsock/internal/wizard"
)

// exchange is one wizard request/reply as the client's socket saw it.
// A run keeps one per request until the oracle checks them, so it is
// kept compact: texts and servers are indexes.
type exchange struct {
	text   int32 // index into clientSide.texts: the text sent
	asked  int32 // the text the operation was asked with
	n      uint16
	opt    proto.Option
	writes uint16
	nsrv   uint16 // servers in the reply
	failed bool   // the reply carried an error
	at     int64  // reply arrival, unix ns
	rtt    time.Duration
	srv    [maxReplyServers]int32 // fleet host indexes; -1: not a fleet host
}

// clientSide is the benchmark's ClientConfig.Dial hook. It routes each
// server address to a real loopback listener, times every TCP dial,
// and wraps the wizard socket so each exchange is timed and its reply
// kept for the oracle. One goroutine drives it.
type clientSide struct {
	routes map[string]string // server address → listener address; absent: dial as is
	tr     *tracer

	scored  bool   // a scored operation is running
	traceOp uint64 // span id of the running operation; 0 when untraced
	// asked is the text the running operation was asked with. Connect's
	// second round sends it with the refused servers appended as denied
	// hosts, and the oracle checks each reply against both.
	asked string

	hostIdx    map[string]int32
	textIdx    map[string]int32
	texts      []string // requirement texts exchanges refer to
	exchanges  []exchange
	replies    int // replies received, and their bytes
	replyBytes int
	sheds      int       // shed replies the client library recovered from or gave up on
	dials      []float64 // ms, successful dials of scored operations
	dialFails  int
}

// textIndex returns the index of a requirement text, adding it on
// first sight.
func (c *clientSide) textIndex(b []byte) int32 {
	if i, ok := c.textIdx[string(b)]; ok {
		return i
	}
	return c.addText(string(b))
}

func (c *clientSide) addText(s string) int32 {
	if c.textIdx == nil {
		c.textIdx = make(map[string]int32)
	}
	i := int32(len(c.texts))
	c.texts = append(c.texts, s)
	c.textIdx[s] = i
	return i
}

// askedIndex is the index of the running operation's own text.
func (c *clientSide) askedIndex() int32 {
	if i, ok := c.textIdx[c.asked]; ok {
		return i
	}
	return c.addText(c.asked)
}

func (c *clientSide) dial(network, addr string) (net.Conn, error) {
	if network != "tcp" {
		conn, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return &wizConn{Conn: conn, c: c}, nil
	}
	target := addr
	if r, ok := c.routes[addr]; ok {
		target = r
	}
	if !strings.HasPrefix(target, "127.") {
		// Fleet names are loopback addresses; anything else is a
		// routing bug, never a host to contact.
		return nil, fmt.Errorf("e2ebench: refusing to dial non-loopback %s", target)
	}
	start := time.Now()
	conn, err := net.DialTimeout("tcp", target, 2*time.Second)
	end := time.Now()
	if c.traceOp != 0 {
		c.tr.span(c.traceOp, spanDial, start, end)
	}
	if c.scored {
		if err != nil {
			c.dialFails++
		} else {
			c.dials = append(c.dials, ms(end.Sub(start)))
		}
	}
	return conn, err
}

// wizConn is the wizard socket of one exchange: the client library
// dials a fresh one per request and writes the same datagram on every
// resend.
type wizConn struct {
	net.Conn
	c      *clientSide
	seq    uint32
	n      uint16
	opt    proto.Option
	text   int32
	writes uint16
	first  time.Time
}

func (w *wizConn) Write(b []byte) (int, error) {
	start := time.Now()
	if w.writes == 0 && len(b) >= 13 {
		w.seq = binary.BigEndian.Uint32(b[1:])
		w.n = binary.BigEndian.Uint16(b[5:])
		w.opt = proto.Option(binary.BigEndian.Uint16(b[7:]))
		w.text = w.c.textIndex(b[13:])
		w.first = start
	}
	w.writes++
	n, err := w.Conn.Write(b)
	if w.c.traceOp != 0 {
		w.c.tr.span(w.c.traceOp, spanUDPWrite, start, time.Now())
	}
	return n, err
}

func (w *wizConn) Read(b []byte) (int, error) {
	start := time.Now()
	n, err := w.Conn.Read(b)
	end := time.Now()
	if w.c.traceOp != 0 {
		w.c.tr.span(w.c.traceOp, spanUDPRead, start, end)
	}
	if err != nil {
		return n, err
	}
	reply, perr := proto.UnmarshalReply(b[:n])
	if perr != nil || reply.Seq != w.seq {
		return n, err
	}
	if _, shed := proto.RetryAfter(reply.Err); shed {
		w.c.sheds++
		return n, err
	}
	if w.c.traceOp != 0 {
		w.c.tr.span(w.c.traceOp, spanRTT, w.first, end)
	}
	x := exchange{
		text: w.text, asked: w.c.askedIndex(), n: w.n, opt: w.opt, writes: w.writes,
		nsrv: uint16(len(reply.Servers)), failed: reply.Err != "",
		at: end.UnixNano(), rtt: end.Sub(w.first),
	}
	for i, s := range reply.Servers[:min(len(reply.Servers), maxReplyServers)] {
		idx, ok := w.c.hostIdx[s]
		if !ok {
			idx = -1
		}
		x.srv[i] = idx
	}
	w.c.exchanges = append(w.c.exchanges, x)
	w.c.replies++
	w.c.replyBytes += n
	return n, err
}

// opKind is a closed-loop operation.
type opKind uint8

const (
	opConnect opKind = iota // Client.Connect(text, 2) then SocketSet.Close
	opRequest               // Client.RequestServers(text, n)
)

type opSpec struct {
	kind  opKind
	shape uint8
	text  string
	n     int
	opts  []proto.Option
}

// opRecord is one closed-loop operation's outcome.
type opRecord struct {
	kind   opKind
	shape  uint8
	lat    time.Duration
	cpu    time.Duration // process CPU while it ran; shaped operations only
	err    error
	traced bool
}

// closedLoop is one client that sends its next operation only after
// the previous one completed, polling the status canary between
// operations while a flip is pending. Each operation's replies go to
// check as soon as it ends and are then dropped, so a run keeps no
// per-request records.
type closedLoop struct {
	client *smartsock.Client
	cs     *clientSide
	canary *canary
	replay *replayer // non-nil in traced runs
	ops    int       // scored operations so far

	// check verifies replies against the oracle and reports whether
	// every one was right; score folds a scored operation into the
	// stretch's statistics.
	check func(xs []exchange) bool
	score func(op opRecord, correct bool, xs []exchange)
}

func newClosedLoop(wizardAddr string, cs *clientSide, c *canary) (*closedLoop, error) {
	client, err := smartsock.NewClient(wizardAddr, &smartsock.ClientConfig{Dial: cs.dial})
	if err != nil {
		return nil, err
	}
	return &closedLoop{client: client, cs: cs, canary: c}, nil
}

// run drives operations from next until d has passed. Unless record
// is set, the operations only warm the system; their replies are still
// checked.
func (l *closedLoop) run(ctx context.Context, d time.Duration, next func() opSpec, record bool) {
	end := time.Now().Add(d)
	for time.Now().Before(end) && ctx.Err() == nil {
		spec := next()
		if record {
			l.do(ctx, spec)
		} else {
			_, _ = l.exec(ctx, spec) // warm-up: only the replies matter
			l.check(l.take())
		}
		l.pollCanary(ctx)
	}
}

// take hands over the exchanges recorded since the last take. The
// slice is valid until the next operation.
func (l *closedLoop) take() []exchange {
	xs := l.cs.exchanges
	l.cs.exchanges = l.cs.exchanges[:0]
	return xs
}

func (l *closedLoop) do(ctx context.Context, spec opSpec) {
	traced := l.cs.tr.on()
	if traced {
		l.cs.traceOp = l.cs.tr.newOp()
	}
	l.cs.scored = true
	var cpu time.Duration
	if spec.shape != shapeNone {
		cpu = -processCPU()
	}
	lat, err := l.exec(ctx, spec)
	if spec.shape != shapeNone {
		cpu += processCPU()
	}
	l.cs.scored = false
	xs := l.take()
	if traced && l.replay != nil && l.ops%replayEvery == 0 && len(xs) > 0 {
		l.replay.run(ctx, l.cs.tr, l.cs.texts[xs[0].text], int(xs[0].n), xs[0].opt)
	}
	l.cs.traceOp = 0
	l.ops++
	l.score(opRecord{kind: spec.kind, shape: spec.shape, lat: lat, cpu: cpu, err: err, traced: traced}, l.check(xs), xs)
}

// exec performs one operation and returns its latency.
func (l *closedLoop) exec(ctx context.Context, spec opSpec) (time.Duration, error) {
	l.cs.asked = spec.text
	start := time.Now()
	switch spec.kind {
	case opConnect:
		set, err := l.client.Connect(ctx, spec.text, spec.n, spec.opts...)
		lat := time.Since(start)
		if l.cs.traceOp != 0 {
			l.cs.tr.span(l.cs.traceOp, spanConnect, start, start.Add(lat))
		}
		if err != nil {
			return lat, err
		}
		cstart := time.Now()
		err = set.Close()
		if l.cs.traceOp != 0 {
			l.cs.tr.span(l.cs.traceOp, spanClose, cstart, time.Now())
		}
		return lat, err
	default:
		_, err := l.client.RequestServers(ctx, spec.text, spec.n, spec.opts...)
		lat := time.Since(start)
		if l.cs.traceOp != 0 {
			l.cs.tr.span(l.cs.traceOp, spanRequest, start, start.Add(lat))
		}
		return lat, err
	}
}

// pollCanary asks for the pending canary marker once.
func (l *closedLoop) pollCanary(ctx context.Context) {
	flip, text, ok := l.canary.pending()
	if !ok {
		return
	}
	l.cs.asked = text
	servers, err := l.client.RequestServers(ctx, text, 1, smartsock.OptPartialOK)
	xs := l.take()
	l.check(xs)
	if err != nil || len(servers) == 0 || servers[0] != l.canary.name || len(xs) == 0 {
		return
	}
	l.canary.observe(flip, time.Unix(0, xs[len(xs)-1].at))
}

// replayEvery is the traced run's replay sampling: one closed-loop
// operation in replayEvery goes through the wizard's stage functions
// again, off the serve path.
const replayEvery = 8

// replayer re-answers sampled requests through the wizard's stage
// functions on the live wizard-side database. It owns its compile
// cache and selectors, so the live wizard's memo, index and counters
// are untouched.
type replayer struct {
	cache *reqlang.Cache
	sel   *core.Selector
	wz    *wizard.Wizard // called through Answer; nothing sends to its socket
	buf   []byte
}

func newReplayer(db *store.DB) (*replayer, error) {
	reg := obs.NewRegistry() // private: keeps replay counts out of the live registries
	sel, err := core.New(db, core.Config{Obs: reg})
	if err != nil {
		return nil, err
	}
	wsel, err := core.New(db, core.Config{Obs: reg})
	if err != nil {
		return nil, err
	}
	wz, err := wizard.New(wizard.Config{Addr: "127.0.0.1:0", Selector: wsel, Obs: reg})
	if err != nil {
		return nil, err
	}
	return &replayer{cache: reqlang.NewCache(reqlang.DefaultCacheSize), sel: sel, wz: wz}, nil
}

// run replays one request: ParseRequest → Cache.Get → Select →
// AppendReply, then the same request through Wizard.Answer, which
// parents the stage spans.
func (r *replayer) run(ctx context.Context, tr *tracer, detail string, n int, opt proto.Option) {
	req := proto.Request{Seq: 1, ServerNum: uint16(n), Option: opt, Detail: detail}
	dgram := proto.MarshalRequest(&req)
	op := tr.newOp()
	t0 := time.Now()
	var parsed proto.Request
	if err := proto.ParseRequest(dgram, &parsed); err != nil {
		return
	}
	t1 := time.Now()
	prog, err := r.cache.Get(parsed.Detail)
	t2 := time.Now()
	if err != nil {
		return
	}
	res, err := r.sel.Select(prog, int(parsed.ServerNum), parsed.Option)
	t3 := time.Now()
	reply := proto.Reply{Seq: parsed.Seq, Servers: res.Servers}
	if err != nil {
		reply.Err = err.Error()
	}
	// Only the marshal's time matters here; the live wizard has already
	// answered this request.
	r.buf, _ = proto.AppendReply(r.buf[:0], &reply)
	t4 := time.Now()
	r.wz.Answer(ctx, &req)
	t5 := time.Now()
	tr.span(op, spanParse, t0, t1)
	tr.span(op, spanCompile, t1, t2)
	tr.span(op, spanSelect, t2, t3)
	tr.span(op, spanMarshal, t3, t4)
	tr.span(op, spanAnswer, t4, t5)
}
