package obs

import (
	"strconv"
	"time"

	"epidemic/internal/node"
)

// Metric names exposed for a node runtime. The *_total counters mirror
// node.Stats; the propagation histogram realises the paper's per-update
// delay distribution (Tables 1-4 measure its t_last / t_avg quantiles).
const (
	MetricUpdatesAccepted     = "epidemic_updates_accepted_total"
	MetricMailSent            = "epidemic_mail_sent_total"
	MetricMailFailures        = "epidemic_mail_failures_total"
	MetricAntiEntropyRuns     = "epidemic_anti_entropy_runs_total"
	MetricRumorRounds         = "epidemic_rumor_rounds_total"
	MetricEntriesSent         = "epidemic_entries_sent_total"
	MetricEntriesReceived     = "epidemic_entries_received_total"
	MetricEntriesApplied      = "epidemic_entries_applied_total"
	MetricRumorsOffered       = "epidemic_rumors_offered_total"
	MetricRumorsWanted        = "epidemic_rumors_wanted_total"
	MetricFullCompares        = "epidemic_full_compares_total"
	MetricRedistributed       = "epidemic_redistributed_total"
	MetricCertificatesExpired = "epidemic_certificates_expired_total"
	MetricUpdatePropagation   = "epidemic_update_propagation_seconds"
	MetricPropagationTracked  = "epidemic_propagation_tracked"
	MetricHotRumors           = "epidemic_hot_rumors"
	MetricPeers               = "epidemic_peers"
	MetricStoreKeys           = "epidemic_store_keys"
	MetricStoreShards         = "epidemic_store_shards"

	// Outbound-engine names: the per-peer send-queue machinery direct mail
	// rides (enqueues, coalesced supersessions, overflow/shutdown drops,
	// drained batches, current depth) plus the receive-side batch counter.
	MetricOutboxEnqueued      = "epidemic_outbox_enqueued_total"
	MetricOutboxCoalesced     = "epidemic_outbox_coalesced_total"
	MetricOutboxDropped       = "epidemic_outbox_dropped_total"
	MetricOutboxBatches       = "epidemic_outbox_batches_total"
	MetricOutboxQueueDepth    = "epidemic_outbox_queue_depth"
	MetricMailBatchesReceived = "epidemic_mail_batches_received_total"

	// Transport-side names, fed from transport.Server.SetObserver by the
	// daemon (the kind label carries the request kind: mail, push-rumors,
	// rumor-offer, sync, full-sync, checksum).
	MetricTransportRequests = "epidemic_transport_requests_total"
	MetricTransportSeconds  = "epidemic_transport_request_seconds"

	// MetricExchangeSeconds is the initiator-side exchange latency
	// histogram, labelled mechanism="anti-entropy"|"rumor" — the source of
	// the cluster digest's p50/p99 columns.
	MetricExchangeSeconds = "epidemic_exchange_seconds"

	// Cluster-observatory names, fed by the daemon's digest collector.
	MetricClusterSites      = "epidemic_cluster_sites"
	MetricClusterStaleSites = "epidemic_cluster_stale_sites"
	MetricClusterStalls     = "epidemic_cluster_stalls_total"
	MetricClusterResidue    = "epidemic_cluster_residue"
)

// ObserveOptions configures InstrumentNode.
type ObserveOptions struct {
	// Ring, when set, records every node event.
	Ring *EventRing
	// Propagation, when set, tracks per-update infection times (it then
	// owns the propagation-histogram observations, deduplicated per
	// site); when nil, the bridge observes the histogram directly on
	// every apply event.
	Propagation *Propagation
	// SecondsPerUnit converts stamp units to seconds for the propagation
	// histogram; 0 means 1e-9 (wall-clock nanoseconds).
	SecondsPerUnit float64
	// Buckets overrides DefBuckets for the propagation histogram.
	Buckets []float64
	// SiteLabel adds a site="<id>" label to the per-node series, so
	// several nodes (e.g. a sim cluster) can share one registry.
	SiteLabel bool
	// WallTime stamps ring records with time.Now; enable it on real
	// daemons, leave it off for deterministic simulation.
	WallTime bool
}

// InstrumentNode registers n's counters and gauges on reg and returns the
// node.Config.OnEvent callback that completes the bridge (event ring,
// propagation tracking, the propagation histogram). The caller installs
// the callback — typically by setting it as cfg.OnEvent before node.New,
// or chaining it with an existing observer.
func InstrumentNode(reg *Registry, n *node.Node, opts ObserveOptions) func(node.Event) {
	var labels []Label
	if opts.SiteLabel {
		labels = []Label{{"site", strconv.Itoa(int(n.Site()))}}
	}
	spu := opts.SecondsPerUnit
	if spu <= 0 {
		spu = 1e-9
	}

	counter := func(name, help string, read func(node.Stats) int) {
		reg.CounterFunc(name, help, func() float64 {
			return float64(read(n.Stats()))
		}, labels...)
	}
	counter(MetricUpdatesAccepted, "Local client writes (updates and deletes) accepted.",
		func(s node.Stats) int { return s.UpdatesAccepted })
	counter(MetricMailSent, "Direct-mail postings delivered (PostMail, §1.2).",
		func(s node.Stats) int { return s.MailSent })
	counter(MetricMailFailures, "Direct-mail postings that failed outright.",
		func(s node.Stats) int { return s.MailFailed })
	counter(MetricAntiEntropyRuns, "Anti-entropy conversations executed (§1.3).",
		func(s node.Stats) int { return s.AntiEntropyRuns })
	counter(MetricRumorRounds, "Rumor-mongering rounds executed (§1.4).",
		func(s node.Stats) int { return s.RumorRuns })
	counter(MetricEntriesSent, "Entries transmitted from this node to peers in exchanges.",
		func(s node.Stats) int { return s.EntriesSent })
	counter(MetricEntriesReceived, "Entries received by this node from peers in exchanges.",
		func(s node.Stats) int { return s.EntriesReceived })
	counter(MetricEntriesApplied, "Transmitted entries that changed a replica.",
		func(s node.Stats) int { return s.EntriesApplied })
	counter(MetricRumorsOffered, "Hot-rumor ids this node offered to peers in rumor rounds (§1.4).",
		func(s node.Stats) int { return s.RumorsOffered })
	counter(MetricRumorsWanted, "Offered rumor ids the peer asked for; 1 - wanted/offered is the redundant share.",
		func(s node.Stats) int { return s.RumorsWanted })
	counter(MetricFullCompares, "Anti-entropy conversations that fell back to full database compares.",
		func(s node.Stats) int { return s.FullCompares })
	counter(MetricRedistributed, "Repaired updates re-hotted or re-mailed (§1.5).",
		func(s node.Stats) int { return s.Redistributed })
	counter(MetricCertificatesExpired, "Death certificates dropped by GC (§2.1).",
		func(s node.Stats) int { return s.CertificatesExpired })
	counter(MetricOutboxEnqueued, "Entries enqueued to per-peer outbound mail queues.",
		func(s node.Stats) int { return s.OutboxEnqueued })
	counter(MetricOutboxCoalesced, "Outbox enqueues absorbed by newest-stamp-wins coalescing.",
		func(s node.Stats) int { return s.OutboxCoalesced })
	counter(MetricOutboxDropped, "Outbox entries dropped (queue overflow, departed peers, shutdown).",
		func(s node.Stats) int { return s.OutboxDropped })
	counter(MetricOutboxBatches, "Outbox drains posted to peers, one mail batch each.",
		func(s node.Stats) int { return s.OutboxBatches })
	counter(MetricMailBatchesReceived, "Batched mail frames applied by this replica.",
		func(s node.Stats) int { return s.MailBatchesReceived })
	reg.GaugeFunc(MetricOutboxQueueDepth, "Entries currently queued in the outbound mail engine across all peers.",
		func() float64 { return float64(n.Stats().OutboxDepth) }, labels...)

	reg.GaugeFunc(MetricHotRumors, "Updates currently on the hot-rumor (infective) list.",
		func() float64 { return float64(len(n.HotEntries())) }, labels...)
	reg.GaugeFunc(MetricPeers, "Peers currently in the replica's partner set.",
		func() float64 { return float64(len(n.Peers())) }, labels...)
	reg.GaugeFunc(MetricStoreKeys, "Keys held by the replica, death certificates included.",
		func() float64 { return float64(n.Store().Len()) }, labels...)
	reg.Gauge(MetricStoreShards, "Lock stripes (shards) in the replica store.",
		labels...).Set(float64(n.Store().ShardCount()))

	// The propagation histogram is shared (no site label): the delay
	// distribution is a cluster-wide observable, t_last/t_avg in seconds.
	hist := reg.Histogram(MetricUpdatePropagation,
		"Delay from an update's origination to its application at a replica, in seconds.",
		opts.Buckets)
	if opts.Propagation != nil {
		// Shared like the histogram: the tracker spans the cluster, and the
		// registry's idempotent registration makes repeat calls harmless.
		tracked := opts.Propagation
		reg.GaugeFunc(MetricPropagationTracked,
			"Update keys currently tracked by the propagation tracker (capacity-bounded).",
			func() float64 { return float64(tracked.Tracked()) })
	}

	// Exchange latency by mechanism, shared across sites like the
	// propagation histogram (one latency distribution per registry).
	aeSeconds := reg.Histogram(MetricExchangeSeconds,
		"Initiator-side duration of one exchange, in seconds, by mechanism.",
		opts.Buckets, Label{"mechanism", "anti-entropy"})
	rumorSeconds := reg.Histogram(MetricExchangeSeconds,
		"Initiator-side duration of one exchange, in seconds, by mechanism.",
		opts.Buckets, Label{"mechanism", "rumor"})

	site := int32(n.Site())
	prop := opts.Propagation
	ring := opts.Ring
	wall := opts.WallTime
	return func(e node.Event) {
		switch e.Kind {
		case node.EventAntiEntropy:
			if e.Duration > 0 {
				aeSeconds.Observe(e.Duration.Seconds())
			}
		case node.EventRumor:
			if e.Duration > 0 {
				rumorSeconds.Observe(e.Duration.Seconds())
			}
		case node.EventUpdate:
			if prop != nil {
				prop.Originated(e.Key, site, e.Stamp.Time)
			}
		case node.EventApply:
			if prop != nil {
				prop.Infected(e.Key, site, e.Stamp.Time, n.Store().Now())
			} else {
				d := float64(n.Store().Now()-e.Stamp.Time) * spu
				if d < 0 {
					d = 0 // cross-site clock skew
				}
				hist.Observe(d)
			}
		}
		if ring != nil {
			rec := EventRecord{
				Site:            site,
				Kind:            e.Kind.String(),
				Peer:            int32(e.Peer),
				Key:             e.Key,
				Keys:            e.Keys,
				Count:           e.Count,
				EntriesSent:     e.Stats.EntriesSent,
				EntriesReceived: e.Stats.EntriesReceived,
				EntriesApplied:  e.Stats.EntriesApplied,
				FullCompare:     e.Stats.FullCompare,
			}
			if !e.Stamp.IsZero() {
				rec.Stamp = e.Stamp.String()
			}
			if wall {
				rec.UnixNanos = time.Now().UnixNano()
			}
			ring.Append(rec)
		}
	}
}
