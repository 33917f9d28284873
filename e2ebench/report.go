package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

func (b *bench) result() *result {
	res := &result{
		Correct:   b.or.violations == 0,
		Attempted: b.sb.attempted,
		Failed:    b.sb.failed,
	}
	e2e := b.endToEnd()
	if expired := b.window.mon.counter("monitor_expired"); expired != 0 {
		fmt.Fprintf(b.log, "health: the monitor expired %.0f records during the window\n", expired)
		res.Correct = false
	}
	if w, r := b.fl.waits.Load(), b.fl.rebases.Load(); w > 0 {
		fmt.Fprintf(b.log, "fleet: %d reports waited for the monitor's ingest window, %d windows counted lost\n", w, r)
	}
	if b.or.violations > 0 {
		fmt.Fprintf(b.log, "oracle: %d violations in %d replies\n", b.or.violations, b.or.checked)
	}
	b.printTable("end-to-end", e2e)
	if !b.o.trace {
		res.Metrics = e2e.metrics
		return res
	}
	layers := b.perLayer(e2e)
	b.printTable("per-layer", layers)
	if path, err := b.tr.write(b.o.traceDir, b.w.name, b.o.seed); err != nil {
		fmt.Fprintf(b.log, "trace: %v\n", err)
	} else {
		fmt.Fprintf(b.log, "trace: %d spans written to %s (%d dropped)\n", len(b.tr.spans), path, b.tr.dropped)
	}
	res.Metrics = layers.metrics
	return res
}

// metricSet is an ordered set of named metrics with sample counts.
type metricSet struct {
	metrics map[string]metric
	order   []string
	samples map[string]int
}

func (m *metricSet) add(name, unit string, v float64, samples int) {
	if m.metrics == nil {
		m.metrics, m.samples = map[string]metric{}, map[string]int{}
	}
	m.metrics[name] = metric{Value: v, Unit: unit}
	m.order = append(m.order, name)
	m.samples[name] = samples
}

func (b *bench) printTable(title string, m metricSet) {
	fmt.Fprintf(b.log, "%s metrics, %s, seed %d:\n", title, b.w.name, b.o.seed)
	for _, name := range m.order {
		mt := m.metrics[name]
		n := ""
		if s := m.samples[name]; s > 0 {
			n = fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Fprintf(b.log, "  %-40s %14.6g %-6s%s\n", name, mt.Value, mt.Unit, n)
	}
}

// requestLat is what request_* measure: the fixed-rate requests where
// the workload has them, else the closed loop's wizard exchanges.
func (b *bench) requestLat() []float64 {
	if len(b.w.fixedRates) > 0 {
		return b.sb.openLat
	}
	return b.sb.rtt
}

func (b *bench) endToEnd() metricSet {
	var m metricSet
	sb := &b.sb
	m.add("setup_s", "s", quantile(b.setups, 0.5), len(b.setups))
	req := b.requestLat()
	m.add("connect_p50_ms", "ms", quantile(sb.connectLat, 0.5), len(sb.connectLat))
	m.add("request_p50_ms", "ms", quantile(req, 0.5), len(req))
	m.add("goodput_rps", "1/s", quantile(sb.perSec, 0.5), len(sb.perSec))
	m.add("success_frac", "ratio", 1-ratio(float64(sb.failed), float64(sb.attempted)), sb.attempted)
	lags := b.cn.takeLags()
	m.add("status_lag_p50_ms", "ms", quantile(lags, 0.5), len(lags))
	m.add("status_lag_p90_ms", "ms", quantile(lags, 0.9), len(lags))
	m.add("fresh_pick_frac", "ratio", 1-ratio(float64(b.or.stale), float64(b.or.picks)), b.or.picks)
	m.add("cpu_us_per_op", "us", float64(sb.cpu.Microseconds())/float64(max(sb.correct, 1)), sb.correct)
	m.add("peak_rss_mb", "MB", b.peakRSS, 0)
	return m
}

func (b *bench) perLayer(e2e metricSet) metricSet {
	var m metricSet
	sb := &b.sb
	wz, mon := b.window.wiz, b.window.mon
	secs := b.window.proc[1].at.Sub(b.window.proc[0].at).Seconds()
	spans := b.tr.analyze()
	// A layer the run never reached reports 0 rather than no value.
	p := func(xs []float64, q float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return quantile(xs, q)
	}

	req := b.requestLat()
	reqP90 := windowedTail(req, 0.9)
	m.add("smartsock.connect_p90_ms", "ms", windowedTail(sb.connectLat, 0.9), len(sb.connectLat))
	m.add("smartsock.request_p90_ms", "ms", reqP90, len(req))
	m.add("smartsock.connect_p99_ms", "ms", windowedTail(sb.connectLat, 0.99), len(sb.connectLat))
	m.add("smartsock.request_p99_ms", "ms", windowedTail(req, 0.99), len(req))
	rttP50 := p(sb.rtt, 0.5)
	m.add("smartsock.wizard_rtt_p50_ms", "ms", rttP50, len(sb.rtt))
	m.add("smartsock.wizard_rtt_p99_ms", "ms", windowedTail(sb.rtt, 0.99), len(sb.rtt))
	m.add("smartsock.dial_p50_ms", "ms", p(sb.dials, 0.5), len(sb.dials))
	m.add("smartsock.dial_failures_per_op", "count", ratio(float64(sb.dialFails), float64(sb.connectOps)), sb.connectOps)
	m.add("smartsock.second_rounds_frac", "ratio", ratio(float64(sb.secondRounds), float64(sb.connectOps)), sb.connectOps)
	m.add("smartsock.self_p50_ms", "ms", p(spans.self[spanConnect], 0.5), len(spans.self[spanConnect]))
	m.add("smartsock.close_p50_ms", "ms", p(spans.dur[spanClose], 0.5), len(spans.dur[spanClose]))
	m.add("smartsock.resends_per_op", "count", ratio(float64(sb.resends), float64(len(sb.rtt))), len(sb.rtt))
	m.add("smartsock.sheds_seen", "count", float64(b.cs.sheds), 0)

	arrivals := wz.counter("wizard_requests") + wz.counter("overload_shed") + wz.counter("overload_ratelimited")
	qd := wz.hist("overload_queue_delay")
	m.add("overload.queue_delay_p50_ms", "ms", histQuantile(qd, 0.5)/1e6, int(qd.Count))
	m.add("overload.queue_delay_p99_ms", "ms", histQuantile(qd, 0.99)/1e6, int(qd.Count))
	m.add("overload.shed_frac", "ratio", ratio(wz.counter("overload_shed"), arrivals), int(arrivals))
	m.add("overload.ratelimited", "count", wz.counter("overload_ratelimited"), 0)
	m.add("netbatch.rx_syscalls_per_req", "count", ratio(wz.counter("netbatch_rx_syscalls"), arrivals), int(arrivals))
	m.add("netbatch.tx_syscalls_per_req", "count", ratio(wz.counter("netbatch_tx_syscalls"), arrivals), int(arrivals))
	m.add("wizard.recv_batch_mean", "count", histMean(wz.hist("wizard_recv_batch")), 0)
	m.add("wizard.send_batch_mean", "count", histMean(wz.hist("wizard_send_batch")), 0)
	ans := wz.hist("wizard_latency_answered", "wizard_latency_partial", "wizard_latency_stale_dropped", "wizard_latency_parse_error", "wizard_latency_rejected")
	ansP50 := histQuantile(ans, 0.5) / 1e3
	m.add("wizard.answer_p50_us", "us", ansP50, int(ans.Count))
	m.add("wizard.answer_p99_us", "us", histQuantile(ans, 0.99)/1e3, int(ans.Count))
	m.add("wizard.rejected_frac", "ratio", ratio(wz.counter("wizard_rejected"), wz.counter("wizard_requests")), 0)
	m.add("wizard.reply_errors", "count", wz.counter("wizard_reply_errors"), 0)

	hits, misses := wz.counter("reqlang_cache_hits"), wz.counter("reqlang_cache_misses")
	m.add("reqlang.cache_hit_frac", "ratio", ratio(hits, hits+misses), int(hits+misses))
	m.add("reqlang.compile_p50_us", "us", 1e3*p(spans.dur[spanCompile], 0.5), len(spans.dur[spanCompile]))

	sels := wz.counter("core_selections")
	selP99 := p(spans.dur[spanSelect], 0.99)
	m.add("core.memo_hit_frac", "ratio", ratio(wz.counter("core_memo_hits"), sels), int(sels))
	m.add("core.record_evals_per_select", "count", ratio(wz.counter("core_record_evals"), sels), int(sels))
	m.add("core.select_p50_us", "us", 1e3*p(spans.dur[spanSelect], 0.5), len(spans.dur[spanSelect]))
	m.add("core.select_p99_us", "us", 1e3*selP99, len(spans.dur[spanSelect]))
	m.add("core.stale_dropped", "count", wz.counter("core_stale_dropped"), 0)

	m.add("index.plan_frac", "ratio", ratio(wz.counter("index_plans"), sels), int(sels))
	m.add("index.rows_pruned_per_select", "count", ratio(wz.counter("index_rows_pruned"), sels), int(sels))
	m.add("index.residual_evals_per_select", "count", ratio(wz.counter("index_residual_evals"), sels), int(sels))
	// The index syncs only where the planner runs (tables of 128 hosts
	// or more), so its apply time exists on select_fleet alone; every
	// workload reports how often it synced, and the time goes to the log.
	ad := wz.hist("index_apply_delta")
	m.add("index.delta_syncs_per_s", "1/s", float64(ad.Count)/secs, int(ad.Count))
	if ad.Count > 0 {
		fmt.Fprintf(b.log, "index apply-delta p99: %.3g us over %d syncs\n", histQuantile(ad, 0.99)/1e3, ad.Count)
	}
	m.add("index.resyncs", "count", wz.counter("index_resyncs"), 0)

	m.add("proto.parse_p50_ns", "ns", 1e6*p(spans.dur[spanParse], 0.5), len(spans.dur[spanParse]))
	m.add("proto.marshal_p50_ns", "ns", 1e6*p(spans.dur[spanMarshal], 0.5), len(spans.dur[spanMarshal]))
	replies := b.cs.replies + b.olReplies
	m.add("proto.reply_bytes_mean", "B", ratio(float64(b.cs.replyBytes+b.olReplyBytes), float64(replies)), replies)

	reports := mon.counter("monitor_reports")
	m.add("monitor.reports_per_s", "1/s", reports/secs, int(reports))
	m.add("monitor.dropped_frac", "ratio", math.Max(0, ratio(b.window.sent-reports+mon.counter("monitor_reports_dropped"), b.window.sent)), int(b.window.sent))
	m.add("monitor.expired", "count", mon.counter("monitor_expired"), 0)
	m.add("probe.encode_p50_ns", "ns", 1e6*p(spans.dur[spanEncode], 0.5), len(spans.dur[spanEncode]))
	m.add("probe.send_p50_ns", "ns", 1e6*p(spans.dur[spanSend], 0.5), len(spans.dur[spanSend]))
	m.add("fleet.late_max_ms", "ms", b.window.fleetLag, 0)

	m.add("transport.delta_epochs_per_s", "1/s", mon.counter("transport_tx_delta_epochs")/secs, 0)
	m.add("transport.skipped_epochs_per_s", "1/s", mon.counter("transport_tx_epochs_skipped")/secs, 0)
	m.add("transport.snapshots", "count", mon.counter("transport_tx_snapshots"), 0)
	m.add("transport.resyncs", "count", wz.counter("transport_recv_resyncs"), 0)
	m.add("transport.torn", "count", wz.counter("transport_recv_torn"), 0)
	cu := wz.hist("transport_epoch_catchup")
	m.add("transport.epoch_catchup_p99_vers", "count", histQuantile(cu, 0.99), int(cu.Count))
	epochs := float64(wz.after.Gauges["store_wizard_sys_epoch"] - wz.before.Gauges["store_wizard_sys_epoch"])
	m.add("store.epochs_per_s", "1/s", epochs/secs, 0)

	p0, p1 := b.window.proc[0], b.window.proc[1]
	ops := sb.ops + b.olOK
	m.add("proc.allocs_per_op", "count", float64(p1.mallocs-p0.mallocs)/float64(max(ops, 1)), ops)
	m.add("proc.alloc_bytes_per_op", "B", float64(p1.bytes-p0.bytes)/float64(max(ops, 1)), ops)
	m.add("proc.gc_cpu_frac", "ratio", ratio(p1.gcCPU-p0.gcCPU, (p1.cpu-p0.cpu).Seconds()), 0)
	m.add("proc.goroutines", "count", float64(runtime.NumGoroutine()), 0)

	// select_fleet's request mix is an assumption; these shares show how
	// much of the closed loop's CPU each shape of text accounts for.
	var shapeTotal time.Duration
	for _, c := range sb.shapeCPU {
		shapeTotal += c
	}
	for s := shapeNone + 1; s < numShapes; s++ {
		m.add("mix."+shapeNames[s]+"_cpu_share", "ratio", ratio(sb.shapeCPU[s].Seconds(), shapeTotal.Seconds()), 0)
	}

	m.add("loadgen.max_rps_under_slo", "1/s", b.maxRate, 0)
	m.add("loadgen.late_p99_ms", "ms", p(b.late, 0.5), len(b.late))
	m.add("loadgen.sent_per_s", "1/s", ratio(float64(b.olSent), b.olTime.Seconds()), b.olSent)
	m.add("validity.retries", "count", float64(b.retries), 0)
	m.add("validity.steal_frac", "ratio", b.window.steal, 0)
	m.add("validity.untimed_frac", "ratio", ratio(float64(b.untimed), float64(b.slices)), b.slices)

	// Reconciliation: how much of each whole the stage spans inside it
	// account for.
	stages := 0.0
	for _, s := range []spanName{spanParse, spanCompile, spanSelect, spanMarshal} {
		stages += mean(spans.dur[s])
	}
	m.add("span.stages_share_of_answer", "ratio", ratio(stages, mean(spans.dur[spanAnswer])), len(spans.dur[spanAnswer]))
	m.add("span.answer_share_of_rtt", "ratio", ratio(ansP50/1e3, rttP50), 0)
	m.add("span.select_share_of_request_p90", "ratio", ratio(p(spans.dur[spanSelect], 0.9), reqP90), 0)
	connTotal := sum(spans.dur[spanConnect])
	m.add("span.rtt_share_of_connect", "ratio", ratio(sum(spans.connectChild[spanRTT]), connTotal), len(spans.dur[spanConnect]))
	m.add("span.dial_share_of_connect", "ratio", ratio(sum(spans.connectChild[spanDial]), connTotal), len(spans.dur[spanConnect]))
	m.add("span.self_share_of_connect", "ratio", ratio(sum(spans.self[spanConnect]), connTotal), len(spans.dur[spanConnect]))

	// Tracing overhead: traced operations against the untraced ones of
	// the same run.
	m.add("trace.overhead_connect_p50_frac", "ratio", ratio(p(sb.traceOn[0], 0.5), p(sb.traceOff[0], 0.5))-1, len(sb.traceOn[0]))
	m.add("trace.overhead_request_p50_frac", "ratio", ratio(p(sb.traceOn[1], 0.5), p(sb.traceOff[1], 0.5))-1, len(sb.traceOn[1]))

	m.add("fail_frac", "ratio", 1-e2e.metrics["success_frac"].Value, sb.attempted)
	m.add("stale_pick_frac", "ratio", 1-e2e.metrics["fresh_pick_frac"].Value, b.or.picks)
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
