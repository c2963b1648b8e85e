package main

import (
	"fmt"
	"time"

	"epidemic"
)

// digestSettings resolves the cluster-observatory flags into concrete
// windows. Stamp units are wall-clock nanoseconds on daemons.
type digestSettings struct {
	every, ttl, staleAfter time.Duration
}

func (cfg daemonConfig) digestSettings() digestSettings {
	s := digestSettings{every: cfg.digestEvery, ttl: cfg.digestTTL, staleAfter: cfg.staleAfter}
	if s.every <= 0 {
		s.every = time.Second
	}
	if s.ttl <= 0 {
		s.ttl = 10 * time.Minute
	}
	if s.staleAfter <= 0 {
		// The detector's default: a digest should have crossed the cluster
		// within a few anti-entropy periods (push-pull spreads it in
		// O(log n) conversations), so 3 missed periods means trouble.
		s.staleAfter = 3 * cfg.aePer
	}
	return s
}

// digestCollector owns the daemon's periodic health-digest refresh: it
// snapshots this replica into the digest directory, prunes departed sites,
// runs the stall detector, and publishes the /cluster status. Stall
// rising edges (via the edge tracker) increment the stall counter, append
// a cluster-stall event, and trigger one flight dump per incident.
type digestCollector struct {
	d     *daemon
	s     digestSettings
	det   *epidemic.ClusterStallDetector
	edges *epidemic.ClusterEdgeTracker
	// overflow is the outbox-overflow burst edge: true while drops are
	// accumulating inside the look-back window, so a sustained burst
	// triggers one dump, not one per collect tick.
	overflow bool
}

func newDigestCollector(d *daemon, s digestSettings) *digestCollector {
	return &digestCollector{
		d: d,
		s: s,
		det: epidemic.NewClusterStallDetector(epidemic.ClusterStallConfig{
			StaleAfter:     s.staleAfter.Nanoseconds(),
			ResidueWindow:  (2 * s.staleAfter).Nanoseconds(),
			ChecksumWindow: s.staleAfter.Nanoseconds(),
			SecondsPerUnit: 1e-9,
		}),
		edges: epidemic.NewClusterEdgeTracker(),
	}
}

// loop drives collect on the digest cadence until the daemon closes.
func (c *digestCollector) loop() {
	defer close(c.d.digestsDone)
	ticker := time.NewTicker(c.s.every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			c.collect()
		case <-c.d.stopDigests:
			return
		}
	}
}

// collect runs one observation tick.
func (c *digestCollector) collect() {
	d := c.d
	now := time.Now().UnixNano()
	self := d.selfDigest(now, c.s.staleAfter.Nanoseconds())
	d.digests.SetSelf(self)
	d.digests.Prune(now, c.s.ttl.Nanoseconds())
	view := d.digests.Snapshot()
	stalls := c.det.Check(now, view)
	status := epidemic.BuildClusterStatus(d.node.Site(), now, view, stalls,
		c.s.staleAfter.Nanoseconds(), 1e-9)
	status.Trends = c.buildTrends()
	d.status.Store(&status)

	stale := 0
	for _, st := range status.Sites {
		if st.Stale {
			stale++
		}
	}
	d.reg.Gauge(epidemic.MetricClusterSites,
		"Sites in this replica's cluster digest view.").Set(float64(len(view)))
	d.reg.Gauge(epidemic.MetricClusterStaleSites,
		"Digest-view sites past the staleness window.").Set(float64(stale))
	d.reg.Gauge(epidemic.MetricClusterResidue,
		"Checksum-disagreement residue proxy: fraction of fresh remote digests whose checksum differs.").
		Set(self.Residue)

	// Stalls are level conditions; count, announce, and flight-dump only
	// the rising edge so a stall that persists for minutes is one
	// incident, not thousands.
	for _, st := range c.edges.Update(stalls) {
		d.reg.Counter(epidemic.MetricClusterStalls,
			"Convergence stalls detected, by reason.",
			epidemic.MetricLabel{Name: "reason", Value: st.Reason}).Inc()
		d.ring.Append(epidemic.EventRecord{
			Site:      int32(d.node.Site()),
			Kind:      "cluster-stall",
			Peer:      st.Site,
			Key:       st.Reason,
			Keys:      []string{st.Detail},
			UnixNanos: now,
		})
		// Trigger is nil-safe (no-op without -flight-dir); a dump failure
		// must not take the collector down, so the error is dropped.
		_, _ = d.flight.Trigger(st.Reason, fmt.Sprintf("site %d: %s", st.Site, st.Detail), now)
	}
	c.checkOverflowBurst(now)
}

// checkOverflowBurst flight-dumps when the outbound mail engine starts
// shedding entries: a positive drop delta across the staleness window is
// the burst condition, edge-tracked so one sustained burst is one dump.
func (c *digestCollector) checkOverflowBurst(now int64) {
	d := c.d
	if d.history == nil || d.flight == nil {
		c.overflow = false
		return
	}
	delta, ok := d.history.Delta(epidemic.MetricOutboxDropped, c.s.staleAfter)
	bursting := ok && delta > 0
	if bursting && !c.overflow {
		detail := fmt.Sprintf("%.0f outbox entries dropped in %s", delta, c.s.staleAfter)
		_, _ = d.flight.Trigger("outbox-overflow", detail, now)
	}
	c.overflow = bursting
}

// trendWindow is the look-back the /cluster and STATSJSON trend fields
// cover; trendPoints bounds each trajectory for sparkline rendering.
const (
	trendWindow = time.Minute
	trendPoints = 24
)

// buildTrends derives the rates-and-trajectories block from the telemetry
// sampler; nil when history is disabled or has fewer than two samples.
func (c *digestCollector) buildTrends() *epidemic.ClusterTrends {
	h := c.d.history
	if h == nil || h.Samples() < 2 {
		return nil
	}
	t := &epidemic.ClusterTrends{WindowSeconds: trendWindow.Seconds()}
	if r, ok := h.Rate(epidemic.MetricRumorRounds, trendWindow); ok {
		t.RumorRatePerSec = r
	}
	if r, ok := h.Rate(epidemic.MetricAntiEntropyRuns, trendWindow); ok {
		t.ExchangeRatePerSec = r
	}
	if p, ok := h.Last(epidemic.MetricOutboxQueueDepth); ok {
		t.OutboxDepth = p.V
	}
	if r, ok := h.Rate(epidemic.MetricOutboxQueueDepth, trendWindow); ok {
		t.OutboxSlopePerSec = r
	}
	t.ResidueTrajectory = trajectory(h, epidemic.MetricClusterResidue)
	t.ExchangeTrajectory = trajectory(h, epidemic.MetricAntiEntropyRuns)
	t.OutboxTrajectory = trajectory(h, epidemic.MetricOutboxQueueDepth)
	return t
}

// trajectory downsamples one series to at most trendPoints values across
// the trend window, oldest first.
func trajectory(h *epidemic.HistorySampler, metric string) []float64 {
	pts := h.Points(metric, trendWindow, trendWindow/trendPoints)
	if len(pts) == 0 {
		return nil
	}
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.V
	}
	return out
}

// selfDigest snapshots this replica's health at time now (unix nanos).
// staleAfter bounds which remote digests count as fresh for the residue
// proxy below.
func (d *daemon) selfDigest(now, staleAfter int64) epidemic.ClusterDigest {
	n := d.node
	st := n.Stats()
	w := d.wire.Snapshot()
	members := len(epidemic.Members(n.Store()))
	dg := epidemic.ClusterDigest{
		Stamp:          now,
		StartedAt:      d.started.UnixNano(),
		StoreKeys:      int64(n.Store().Len()),
		Checksum:       n.Store().Checksum(),
		HotRumors:      int64(len(n.HotEntries())),
		Peers:          int64(len(n.Peers())),
		Members:        int64(members),
		AERuns:         int64(st.AntiEntropyRuns),
		RumorRuns:      int64(st.RumorRuns),
		WireMsgsBinary: w.MsgsBinary,
		LastAE:         d.lastAE.Load(),
		AntiEntropy:    summarize(d.aeSeconds),
		Rumor:          summarize(d.rumorSeconds),
	}
	if d.prop != nil {
		// t_last over the tracked updates: the largest origination-to-
		// local-apply delay seen, i.e. how long updates take to reach this
		// replica — the one propagation observable a lone node can measure.
		var worst float64
		for _, k := range d.prop.Keys() {
			if tl, ok := d.prop.TLast(k); ok && tl > worst {
				worst = tl
			}
		}
		dg.TLastSeconds = worst
	}
	// A lone replica cannot count infections at other sites, so its
	// residue is the gossip-observable proxy: the fraction of fresh remote
	// digests whose database checksum disagrees with this replica's. A
	// converged cluster reports 0 everywhere; an update in flight raises
	// it until the other sites apply it and their refreshed digests gossip
	// back, so "nonzero and not decaying" still means a stalled epidemic.
	var remote, differ int
	for _, rd := range d.digests.Snapshot() {
		if rd.Site == int32(n.Site()) || now-rd.Stamp > staleAfter {
			continue
		}
		remote++
		if rd.Checksum != dg.Checksum {
			differ++
		}
	}
	if remote > 0 {
		dg.Residue = float64(differ) / float64(remote)
	}
	return dg
}

// summarize compresses an exchange-latency histogram into the digest's
// quantile pair. An empty histogram yields the zero summary (never NaN).
func summarize(h *epidemic.Histogram) epidemic.ClusterLatencySummary {
	if h == nil {
		return epidemic.ClusterLatencySummary{}
	}
	c := h.Count()
	if c == 0 {
		return epidemic.ClusterLatencySummary{}
	}
	return epidemic.ClusterLatencySummary{Count: c, P50: h.Quantile(0.5), P99: h.Quantile(0.99)}
}
