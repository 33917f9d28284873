package main

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"smartsock/internal/reqlang"
)

// textInfo is a requirement text compiled on the benchmark's side.
type textInfo struct {
	detail string
	prog   *reqlang.Program
	denied []string // host parts of the user_denied_host assignments
}

// maxMemo bounds the oracle's memo of qualification verdicts.
const maxMemo = 1 << 16

type qualKey struct {
	text  *textInfo
	host  int32
	entry int32
}

// oracle checks every reply against the fleet's ground truth:
//   - each server satisfies its requirement under some status the fleet
//     reported for it within the staleness window (monitor expiry plus
//     one transport epoch) before the reply arrived;
//   - no server is on the request's denied list;
//   - no server appears twice;
//   - no more servers than requested.
//
// It also counts stale picks: servers that fail their requirement under
// the status the fleet had last reported when the reply arrived.
type oracle struct {
	fl      *fleet
	hostIdx map[string]int32
	window  int64 // ns
	texts   map[string]*textInfo
	memo    map[qualKey]bool
	env     reqlang.Env
	allVars map[string]float64 // one host's full report, for reading denied lists
	log     io.Writer

	checked    int
	violations int
	picks      int
	stale      int
}

func newOracle(fl *fleet, window int64, log io.Writer) *oracle {
	o := &oracle{
		fl:      fl,
		hostIdx: make(map[string]int32, len(fl.hosts)),
		window:  window,
		texts:   make(map[string]*textInfo),
		memo:    make(map[qualKey]bool),
		env:     reqlang.Env{Params: make(map[string]float64, 8)},
		log:     log,
	}
	for i, h := range fl.hosts {
		o.hostIdx[h.name] = int32(i)
	}
	h := fl.hosts[0]
	st := h.status(h.v)
	o.allVars = st.Vars()
	return o
}

// text compiles a requirement once. The closed loop meets texts the
// pool never held — the client library appends denied hosts for its
// second selection round — so unknown texts are compiled on demand.
func (o *oracle) text(detail string) (*textInfo, error) {
	if t, ok := o.texts[detail]; ok {
		return t, nil
	}
	prog, err := reqlang.Parse(detail)
	if err != nil {
		return nil, fmt.Errorf("oracle: compile requirement: %w", err)
	}
	t := &textInfo{detail: detail, prog: prog}
	// The denied list is an assignment, but evaluation stops at a hard
	// error, so bind every variable a report carries before reading it.
	for _, d := range prog.Eval(&reqlang.Env{Params: o.allVars}).Denied {
		t.denied = append(t.denied, hostPart(d))
	}
	o.texts[detail] = t
	return t, nil
}

// hostPart drops a port suffix and case, the way the wizard matches
// user-side host lists.
func hostPart(addr string) string {
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		addr = addr[:i]
	}
	return strings.ToLower(addr)
}

// check verifies one reply to the text t, received at unix time at,
// reporting whether it is correct. asked is the text the user asked
// with: t itself, or t's origin when the client library appended
// denied hosts of its own, and a host either denies must not be
// returned. The caller holds the fleet's history lock.
func (o *oracle) check(t, asked *textInfo, n int, at int64, servers []string) bool {
	o.checked++
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		o.violations++
		if o.violations <= 20 {
			fmt.Fprintf(o.log, "oracle violation: "+format+"\n  request (n=%d): %q\n  reply: %v\n", append(args, n, t.detail, servers)...)
			if asked != t {
				fmt.Fprintf(o.log, "  asked with: %q\n", asked.detail)
			}
		}
	}
	if len(servers) > n {
		fail("%d servers for a request of %d", len(servers), n)
	}
	for i, s := range servers {
		for _, prev := range servers[:i] {
			if prev == s {
				fail("server %s appears twice", s)
			}
		}
		hp := hostPart(s)
		if slices.Contains(t.denied, hp) || slices.Contains(asked.denied, hp) {
			fail("denied host %s returned", s)
		}
		idx, known := o.hostIdx[s]
		if !known {
			fail("server %s is not in the fleet", s)
			continue
		}
		h := o.fl.hosts[idx]
		last := h.entryAt(at)
		first := max(h.entryAt(at-o.window), 0)
		qualified := false
		for e := last; e >= first && !qualified; e-- {
			qualified = o.qualifies(t, idx, int32(e))
		}
		if !qualified {
			fail("server %s fails the requirement under every status reported in the last %.0f ms", s, float64(o.window)/1e6)
		}
		o.picks++
		if last >= 0 && !o.qualifies(t, idx, int32(last)) {
			o.stale++
		}
	}
	return ok
}

func (o *oracle) qualifies(t *textInfo, host, entry int32) bool {
	k := qualKey{t, host, entry}
	if q, ok := o.memo[k]; ok {
		return q
	}
	h := o.fl.hosts[host]
	st := h.status(h.history[entry].v)
	clear(o.env.Params)
	for _, name := range t.prog.MentionedVars() {
		if v, ok := st.Var(name); ok {
			o.env.Params[name] = v
		}
	}
	q := t.prog.Eval(&o.env).Qualified
	if len(o.memo) >= maxMemo {
		// Replies move forward in time, so old entries stop mattering;
		// dropping them all keeps the run's memory flat.
		clear(o.memo)
	}
	o.memo[k] = q
	return q
}
