package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanName identifies a layer boundary the benchmark times from the
// outside, around its own calls into the system's exported functions.
type spanName uint8

const (
	spanConnect  spanName = iota // smartsock.Client.Connect
	spanRequest                  // smartsock.Client.RequestServers
	spanRTT                      // Dial-hook UDP conn: first request write → matching reply read
	spanUDPWrite                 // Dial-hook UDP conn: one Write
	spanUDPRead                  // Dial-hook UDP conn: one Read
	spanDial                     // Dial hook: one TCP dial
	spanClose                    // smartsock.SocketSet.Close
	spanEncode                   // fleet: status.EncodeReport
	spanSend                     // fleet: report datagram write
	spanCanary                   // canary report sent → first reply naming it
	spanAnswer                   // replay: wizard.Wizard.Answer
	spanParse                    // replay: proto.ParseRequest
	spanCompile                  // replay: reqlang.Cache.Get
	spanSelect                   // replay: core.Selector.Select
	spanMarshal                  // replay: proto.AppendReply
	numSpanNames
)

var spanLabels = [numSpanNames]string{
	"smartsock.Connect", "smartsock.RequestServers", "smartsock.wizard_rtt",
	"smartsock.udp_write", "smartsock.udp_read", "smartsock.tcp_dial",
	"smartsock.SocketSet.Close", "probe.encode", "probe.send", "canary.visible",
	"wizard.Answer", "proto.ParseRequest", "reqlang.Cache.Get",
	"core.Selector.Select", "proto.AppendReply",
}

type span struct {
	op         uint64
	name       spanName
	start, end int64 // unix ns
}

// maxSpans bounds the in-memory trace; spans past it are counted,
// not kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory while a traced run measures and writes
// them out when it ends. A nil tracer is off.
type tracer struct {
	enabled atomic.Bool
	nextOp  atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int
}

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) newOp() uint64 { return t.nextOp.Add(1) }

func (t *tracer) span(op uint64, name spanName, start, end time.Time) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{op: op, name: name, start: start.UnixNano(), end: end.UnixNano()})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// spanStats is the per-name duration and self-time distribution.
type spanStats struct {
	dur, self [numSpanNames][]float64 // ms
	// connectChild holds, per Connect span, the time the spans of each
	// name inside it covered.
	connectChild [numSpanNames][]float64 // ms per Connect
}

// analyze computes every span's self time: its duration minus the
// part of it that the other spans of the same operation, nested
// inside it, cover.
func (t *tracer) analyze() *spanStats {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].op != spans[j].op {
			return spans[i].op < spans[j].op
		}
		return spans[i].start < spans[j].start
	})
	st := new(spanStats)
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].op == spans[lo].op {
			hi++
		}
		group := spans[lo:hi]
		for i, s := range group {
			dur := s.end - s.start
			covered := coveredBy(group, i)
			st.dur[s.name] = append(st.dur[s.name], float64(dur)/1e6)
			st.self[s.name] = append(st.self[s.name], float64(dur-covered)/1e6)
			if s.name == spanConnect {
				var child [numSpanNames]int64
				for j, c := range group {
					if j != i && c.start >= s.start && c.end <= s.end {
						child[c.name] += c.end - c.start
					}
				}
				for n := range child {
					st.connectChild[n] = append(st.connectChild[n], float64(child[n])/1e6)
				}
			}
		}
		lo = hi
	}
	return st
}

// coveredBy returns how much of group[i]'s interval the union of the
// other spans lying inside it covers. group is sorted by start.
func coveredBy(group []span, i int) int64 {
	p := group[i]
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for j, c := range group {
		if j == i || c.start < p.start || c.end > p.end || (c.start == p.start && c.end == p.end) {
			continue
		}
		if c.start > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = c.start, c.end
		} else if c.end > curEnd {
			curEnd = c.end
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"op\":%d,\"name\":%q,\"start_ns\":%d,\"dur_ns\":%d}\n", s.op, spanLabels[s.name], s.start, s.end-s.start)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close trace: %w", err)
	}
	return path, nil
}
