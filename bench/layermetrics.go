package main

import (
	"math"
	"time"

	"epidemic/bench/layers"
)

// layerMetrics fills in the per-layer metrics of a traced run from its two
// outside sources: (C) counter deltas scraped from the daemons, and (T) the
// in-process layer suite run on the stream the daemons were sent. share.*
// multiplies one by the other; README.md gives the formulas.
func (r *run1) layerMetrics() error {
	w, l, u := r.work1, &r.load, r.updates
	put := func(name string, v float64, unit string, n int) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // nothing of the kind happened in this workload
		}
		r.res.perLayer[name] = measure{v, unit, n}
	}
	count := func(name, key string) float64 {
		put(name, w[key], "count", int(w[key]))
		return w[key]
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// gossipd: the client front door, seen from the client side and /proc.
	put("gossipd.client_ops", r.clientCmds, "count", int(r.clientCmds))
	put("gossipd.get_rtt_p50_us", percentile(l.getRTTUs, 50), "us", len(l.getRTTUs))
	put("gossipd.ack_p99_ms", percentile(l.ackMs, 99), "ms", len(l.ackMs))
	put("gossipd.io_wchar_bytes_per_update", w["proc.io_wchar"]/u, "B", int(u))
	put("gossipd.ctx_switches_per_update", w["proc.ctx_switches"]/u, "count", int(u))

	// node: update path and outbox.
	enq := count("node.outbox_enqueued", "node.outbox_enqueued")
	coal := count("node.outbox_coalesced", "node.outbox_coalesced")
	batches := count("node.outbox_batches", "node.outbox_batches")
	dropped := w["node.outbox_dropped"]
	put("node.outbox_entries_per_batch", ratio(enq-coal-dropped, batches), "count", int(batches))
	put("node.outbox_drop_ratio", ratio(dropped, enq), "ratio", int(enq))
	put("node.mail_max_queued_ms", w[keyMailMaxQueued]/1e6, "ms", 1)
	count("node.mail_failed", "node.mail_failed")

	// node: rumor and anti-entropy rounds.
	rumorRuns := count("node.rumor_runs", "node.rumor_runs")
	aeRuns := count("node.ae_runs", "node.anti_entropy_runs")
	sent := count("node.entries_sent", "node.entries_sent")
	received := count("node.entries_received", "node.entries_received")
	applied := count("node.entries_applied", "node.entries_applied")
	put("node.redundant_ratio", 1-ratio(applied, received), "ratio", int(received))
	count("node.full_compares", "node.full_compares")
	count("node.redistributed", "node.redistributed")
	last := r.res.endToEnd["visible_last_p50_ms"]
	put("node.rounds_to_last", last.Value/ms(rumorEvery.Seconds()), "rounds", last.Samples)
	put("node.rounds_to_last_expected", layers.ExpectedPushRounds(r.p.daemons), "rounds", 0)

	// transport: the client side of every daemon's wire, and the server
	// side's busy time from /metrics.
	msgs := w["wire.msgs_binary"] + w["wire.msgs_gob"]
	put("transport.msgs", msgs, "count", int(msgs))
	put("transport.bytes_per_msg", ratio(w["wire.bytes_sent"]+w["wire.bytes_received"], msgs), "B", int(msgs))
	dials := count("transport.dials", "wire.dials")
	put("transport.reuse_ratio", ratio(w["wire.reuses"], w["wire.reuses"]+dials), "ratio", int(w["wire.reuses"]+dials))
	mailBatches := count("transport.mail_batches", "wire.mail_batches")
	mailEntries := w["wire.mail_batch_entries"]
	put("transport.mail_entries_per_batch", ratio(mailEntries, mailBatches), "count", int(mailBatches))
	udpPushes := count("transport.udp_pushes", "wire.udp_pushes")
	put("transport.udp_fallback_ratio", ratio(w["wire.udp_fallbacks"], udpPushes+w["wire.udp_fallbacks"]), "ratio", int(udpPushes+w["wire.udp_fallbacks"]))
	count("transport.shardvec_exchanges", "wire.shardvec_exchanges")
	count("transport.shardvec_downgrades", "wire.shardvec_downgrades")
	served := w.sumPrefix("prom.epidemic_transport_request_seconds_count")
	put("transport.server_busy_ms", ms(w.sumPrefix("prom.epidemic_transport_request_seconds_sum")), "ms", int(served))
	for _, mech := range []string{"anti-entropy", "rumor"} {
		n := w.sumPrefix(`prom.epidemic_exchange_seconds_count{mechanism="` + mech + `"`)
		put("transport.exchange_p50_ms."+mech, ms(w.histQuantile("epidemic_exchange_seconds", `mechanism="`+mech+`"`, 0.5)), "ms", int(n))
	}

	// obs: what one scrape of /metrics costs at this workload's store size.
	put("obs.metrics_scrape_ms", median(r.scrapeMs), "ms", len(r.scrapeMs))
	put("obs.metrics_series", median(r.scrapeSeries), "count", len(r.scrapeSeries))

	// loadgen: is the generator, not the program, the bottleneck?
	put("loadgen.late_p99_ms", percentile(l.lateMs, 99), "ms", len(l.lateMs))
	put("loadgen.backlog_max", float64(l.backlogMax), "count", len(l.lateMs))
	put("loadgen.cpu_s", r.harnessCPU, "s", 1)
	put("loadgen.poll_gets", float64(l.polls), "count", int(l.polls))

	for _, name := range []string{"rejoin.catchup_warm_s", "rejoin.catchup_cold_s", "rejoin.boot_s"} {
		if _, ok := r.res.perLayer[name]; !ok {
			put(name, 0, "s", 0) // only the rejoin workload restarts a replica
		}
	}

	// (T) the layer suite, on the ops this run generated.
	stream := make([]layers.Op, len(r.ops))
	for i, o := range r.ops {
		stream[i] = layers.Op{Key: keyName(o.key), Value: value(o.seq), Delete: o.kind == opDel}
		if o.kind == opProbe {
			stream[i].Key = probeKey(o.seq)
		}
	}
	start := time.Now()
	rows, err := layers.Run(stream, r.p.layerScale, keyName, value, r.work)
	if err != nil {
		return err
	}
	t := map[string]float64{}
	for _, row := range rows {
		put(row.Name, row.Value, row.Unit, row.Calls)
		t[row.Name] = row.Value
	}
	put("loadgen.layer_suite_s", time.Since(start).Seconds(), "s", len(rows))

	// share.<layer>: the layer's call counts times its cost per call, as a
	// share of the CPU seconds the daemons burnt in the measured windows.
	// A nested layer's cost is taken out of the layer that calls it.
	pos := func(v float64) float64 { return math.Max(0, v) }
	writes := w["node.updates_accepted"]
	stale := pos(received - applied)
	gets := r.clientCmds - float64(l.acked) // visibility polls and read-back
	storeNs := writes*t["store.update_ns"] + applied*t["store.apply_fresh_ns"] + stale*t["store.apply_stale_ns"] +
		gets*t["store.lookup_ns"] + 2*aeRuns*t["store.checksum_live_us"]*1e3
	nodeNs := writes*pos(t["node.update_ns"]-t["store.update_ns"]) +
		mailEntries*pos(t["node.handle_mail_batch_ns_per_entry"]-t["store.apply_fresh_ns"]) +
		sent*pos(t["node.handle_rumors_ns_per_entry"]-t["store.apply_fresh_ns"]) +
		(rumorRuns+aeRuns)*t["node.step_ae_insync_us"]*1e3
	transportNs := mailEntries*pos(t["transport.mail_batch64_us"]*1e3/64-t["node.handle_mail_batch_ns_per_entry"]) +
		udpPushes*pos(t["transport.push_rumors16_udp_us"]*1e3-16*t["node.handle_rumors_ns_per_entry"]) +
		pos(msgs-mailBatches)*t["transport.exchange_insync_us"]*1e3
	obsNs := writes * t["node.update_ns"] * pos(t["obs.update_overhead_pct"]) / 100
	cpuNs := w["proc.cpu_s"] * 1e9
	explained := 0.0
	for _, layer := range []struct {
		name string
		ns   float64
	}{{"store", storeNs}, {"node", nodeNs}, {"transport", transportNs}, {"obs", obsNs}} {
		share := ratio(layer.ns, cpuNs)
		explained += share
		put("share."+layer.name, share, "ratio", int(u))
	}
	put("share.unexplained", 1-explained, "ratio", int(u))
	return nil
}
