package main

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"epidemic"
)

// daemonConfig carries the parsed flags.
type daemonConfig struct {
	site            int
	listen, client  string
	peerSpec        string
	aePer, rumPer   time.Duration
	mail            bool
	k               int
	tau1, tau2      time.Duration
	retain          int
	data, advertise string
	// admin enables the observability HTTP endpoint when non-empty.
	admin string
	// logLevel enables structured logging to stderr when non-empty
	// (debug|info|warn|error); logFormat selects text or json.
	logLevel, logFormat string
	// poolSize bounds the persistent gossip connections kept per peer
	// (0 = default); peelBatch sets the peel-back batch size
	// (0 = default); exchangeTimeout is the per-request deadline on
	// outbound gossip.
	poolSize        int
	peelBatch       int
	exchangeTimeout time.Duration
	// storeShards sets the replica store's lock-stripe count (0 = default).
	storeShards int
	// shardRepairWorkers bounds how many diverged shards one anti-entropy
	// exchange repairs concurrently (0 = default).
	shardRepairWorkers int
	// outboxQueue bounds each per-peer send queue of the outbound mail
	// engine before drop-oldest kicks in (0 = default).
	outboxQueue int
	// traceRing enables hop-provenance tracing when > 0: the node retains
	// that many spans for the TRACE verb and /trace admin route.
	traceRing int
	// mutexProfileFraction/blockProfileRate feed the runtime profilers so
	// /debug/pprof/{mutex,block} can show lock contention (0 = disabled).
	mutexProfileFraction int
	blockProfileRate     int
	// clusterDigests enables the cluster observatory: health digests that
	// piggyback on gossip exchanges, the /cluster admin route, and the
	// convergence stall detector behind /healthz degradation.
	clusterDigests bool
	// digestEvery is the self-digest refresh period; digestTTL drops remote
	// digests unrefreshed for that long; staleAfter marks a site stale
	// (0 = 3 x the anti-entropy period).
	digestEvery, digestTTL, staleAfter time.Duration
	// historyStep enables the telemetry time machine when > 0: a sampler
	// goroutine records every registered metric into bounded ring-buffer
	// time series at this cadence, retained for historyRetention, behind
	// /metrics/history and the /cluster + STATSJSON trend fields.
	historyStep, historyRetention time.Duration
	// flightDir enables the anomaly flight recorder when non-empty: stall
	// edges and outbox overflow bursts dump a correlated snapshot (events,
	// spans, time series, digests, wire stats) there, at most flightMax
	// dumps with oldest-first eviction, served on /flight.
	flightDir string
	flightMax int
}

// peerOptions derives the outbound wire options every peer of this daemon
// shares, feeding one process-wide WireStats.
func (cfg daemonConfig) peerOptions(wire *epidemic.WireStats, digests *epidemic.ClusterDirectory) epidemic.TCPPeerOptions {
	return epidemic.TCPPeerOptions{
		Timeout:            cfg.exchangeTimeout,
		PoolSize:           cfg.poolSize,
		Stats:              wire,
		Digests:            digests,
		ShardRepairWorkers: cfg.shardRepairWorkers,
	}
}

// daemon is one running replica: gossip server, client listener, node
// daemons, the membership sync loop, and the optional admin endpoint.
type daemon struct {
	node     *epidemic.Node
	srv      *epidemic.TCPServer
	clientLn net.Listener
	stopSync chan struct{}
	syncDone chan struct{}

	reg      *epidemic.MetricsRegistry
	ring     *epidemic.EventRing
	wire     *epidemic.WireStats
	peerOpts epidemic.TCPPeerOptions
	adminLn  net.Listener
	adminSrv *http.Server

	// Cluster observatory state. digests is nil when -cluster-digests is
	// off; status holds the latest /cluster reply (nil until the first
	// collect, or forever when the observatory is off).
	started      time.Time
	digests      *epidemic.ClusterDirectory
	prop         *epidemic.PropagationTracker
	aeSeconds    *epidemic.Histogram
	rumorSeconds *epidemic.Histogram
	lastAE       atomic.Int64
	status       atomic.Pointer[epidemic.ClusterStatusReply]
	stopDigests  chan struct{}
	digestsDone  chan struct{}
	closeOnce    sync.Once

	// Telemetry time machine: history is nil when -history-step is 0,
	// flight nil when -flight-dir is empty.
	history     *epidemic.HistorySampler
	flight      *epidemic.FlightRecorder
	stopHistory chan struct{}
	historyDone chan struct{}
}

// buildLogger maps the -log-level/-log-format flags onto a slog.Logger
// writing to stderr. An empty level disables logging (nil logger).
func buildLogger(level, format string) (*slog.Logger, error) {
	if level == "" {
		return nil, nil
	}
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text|json)", format)
	}
}

// startDaemon wires and starts a replica. Callers must Close it.
func startDaemon(cfg daemonConfig) (*daemon, error) {
	logger, err := buildLogger(cfg.logLevel, cfg.logFormat)
	if err != nil {
		return nil, err
	}
	// Lock-contention sampling must be on before any contention happens for
	// the pprof endpoints to have data; both default to off (zero cost).
	if cfg.mutexProfileFraction > 0 {
		runtime.SetMutexProfileFraction(cfg.mutexProfileFraction)
	}
	if cfg.blockProfileRate > 0 {
		runtime.SetBlockProfileRate(cfg.blockProfileRate)
	}
	var digests *epidemic.ClusterDirectory
	if cfg.clusterDigests {
		digests = epidemic.NewClusterDirectory(epidemic.SiteID(cfg.site), 0)
	}
	n, err := epidemic.NewNode(epidemic.NodeConfig{
		Site:   epidemic.SiteID(cfg.site),
		Logger: logger,
		Rumor:  epidemic.RumorConfig{K: cfg.k, Counter: true, Feedback: true, Mode: epidemic.PushPull},
		Resolve: epidemic.ResolveConfig{
			// Mode and Strategy only validate the config: every peer is a
			// TCP peer, whose wire ladder ignores both (TCPPeer.AntiEntropy).
			Mode:              epidemic.PushPull,
			Strategy:          epidemic.CompareRecent,
			Tau:               int64(20 * cfg.aePer), // generous: 20 anti-entropy periods
			Tau1:              cfg.tau1.Nanoseconds(),
			BatchSize:         cfg.peelBatch,
			ReactivateDormant: true,
		},
		DirectMailOnUpdate: cfg.mail,
		Outbox:             epidemic.OutboxConfig{QueuePerPeer: cfg.outboxQueue},
		Redistribution:     epidemic.RedistributeRumor,
		Tau1:               cfg.tau1.Nanoseconds(),
		Tau2:               cfg.tau2.Nanoseconds(),
		RetentionCount:     cfg.retain,
		AntiEntropyEvery:   cfg.aePer,
		RumorEvery:         cfg.rumPer,
		SnapshotPath:       cfg.data,
		SnapshotEvery:      time.Minute,
		StoreShards:        cfg.storeShards,
		TraceRing:          cfg.traceRing,
		Digests:            digests,
	})
	if err != nil {
		return nil, err
	}

	wire := &epidemic.WireStats{}
	peerOpts := cfg.peerOptions(wire, digests)
	peers, err := parsePeers(cfg.peerSpec, peerOpts)
	if err != nil {
		return nil, err
	}
	n.SetPeers(peers)

	srv, err := epidemic.ServeTCP(n, cfg.listen)
	if err != nil {
		return nil, err
	}
	cln, err := net.Listen("tcp", cfg.client)
	if err != nil {
		_ = srv.Close()
		return nil, fmt.Errorf("client listen %s: %w", cfg.client, err)
	}
	// Started before the first Update (the announcement below, then every
	// client SET/DEL), so mail fans out from the node's workers and never
	// on the writer's goroutine.
	n.Start()
	fail := func(err error) (*daemon, error) {
		n.Stop()
		_ = srv.Close()
		_ = cln.Close()
		return nil, err
	}

	// Announce this replica in the replicated membership directory and
	// keep the peer set synchronised with it: new replicas that announce
	// themselves anywhere become peers everywhere once the record gossips
	// over.
	advertise := cfg.advertise
	if advertise == "" {
		advertise = srv.Addr()
	}
	if _, err := epidemic.Announce(n, advertise); err != nil {
		return fail(err)
	}

	d := &daemon{
		node:        n,
		srv:         srv,
		clientLn:    cln,
		stopSync:    make(chan struct{}),
		syncDone:    make(chan struct{}),
		reg:         epidemic.NewMetricsRegistry(),
		ring:        epidemic.NewEventRing(0),
		wire:        wire,
		peerOpts:    peerOpts,
		started:     time.Now(),
		digests:     digests,
		stopDigests: make(chan struct{}),
		digestsDone: make(chan struct{}),
	}
	d.instrument(logger)
	if cfg.historyStep > 0 {
		d.history = epidemic.NewHistorySampler(d.reg, epidemic.HistoryConfig{
			Step:      cfg.historyStep,
			Retention: cfg.historyRetention,
		})
		d.stopHistory = make(chan struct{})
		d.historyDone = make(chan struct{})
	}
	if cfg.flightDir != "" {
		flight, err := epidemic.NewFlightRecorder(cfg.flightDir, cfg.flightMax)
		if err != nil {
			return fail(err)
		}
		d.flight = flight
		d.addFlightSections()
	}
	if cfg.admin != "" {
		if err := d.startAdmin(cfg.admin); err != nil {
			return fail(err)
		}
	}
	if digests != nil {
		// First collect runs synchronously so /cluster answers from the
		// moment the daemon is up; the loop takes over from there.
		col := newDigestCollector(d, cfg.digestSettings())
		col.collect()
		go col.loop()
	} else {
		close(d.digestsDone)
	}
	if d.history != nil {
		go func() {
			defer close(d.historyDone)
			d.history.Run(d.stopHistory)
		}()
	}
	go d.syncLoop(cfg.aePer)
	go serveClients(cln, n, d.clientEnv())
	return d, nil
}

// clientEnv bundles what the line-protocol handler needs beyond the node:
// the wire stats for the WIRE verb and the trend provider for STATSJSON.
func (d *daemon) clientEnv() clientEnv {
	return clientEnv{
		wire:   d.wire,
		trends: func() *epidemic.ClusterTrends { return d.loadTrends() },
	}
}

// loadTrends returns the latest published trends block, or nil before the
// first digest collect (or when the observatory/history are off).
func (d *daemon) loadTrends() *epidemic.ClusterTrends {
	st := d.status.Load()
	if st == nil {
		return nil
	}
	return st.Trends
}

// addFlightSections registers the correlated snapshot every flight dump
// carries: the recent event window, hop-trace spans, the full retained
// time-series window, the digest directory, wire stats, node stats, and
// the latest /cluster status. Every callback tolerates the corresponding
// subsystem being disabled (nil-safe snapshots).
func (d *daemon) addFlightSections() {
	d.flight.AddSection("events", func() any {
		return d.ring.Snapshot()
	})
	d.flight.AddSection("spans", func() any {
		return d.node.Tracer().DumpFor("")
	})
	d.flight.AddSection("series", func() any {
		return d.history.SnapshotWindow(0)
	})
	d.flight.AddSection("digests", func() any {
		if d.digests == nil {
			return nil
		}
		return d.digests.Snapshot()
	})
	d.flight.AddSection("wire", func() any {
		return d.wire.Snapshot()
	})
	d.flight.AddSection("stats", func() any {
		return d.node.Stats()
	})
	d.flight.AddSection("status", func() any {
		return d.status.Load()
	})
}

// instrument bridges the node and the gossip server into the registry and
// the event ring. Stamp units are wall-clock nanoseconds, so propagation
// delays scale by 1e-9.
func (d *daemon) instrument(logger *slog.Logger) {
	if d.digests != nil {
		// The propagation tracker feeds the digest's residue/t_last fields;
		// it takes over the propagation-histogram observations from the
		// bridge (same histogram, deduplicated per site).
		d.prop = epidemic.NewPropagationTracker(1e-9, d.reg.Histogram(
			epidemic.MetricUpdatePropagation,
			"Delay from an update's origination to its application at a replica, in seconds.",
			nil))
	}
	observe := epidemic.InstrumentNode(d.reg, d.node, epidemic.ObserveOptions{
		Ring:           d.ring,
		Propagation:    d.prop,
		SecondsPerUnit: 1e-9,
		WallTime:       true,
	})
	d.node.SetOnEvent(func(e epidemic.NodeEvent) {
		if e.Kind == epidemic.NodeEventAntiEntropy {
			d.lastAE.Store(time.Now().UnixNano())
		}
		observe(e)
	})
	// Handles on the per-mechanism exchange-latency histograms the bridge
	// just registered, for the digest's quantile summaries (registration is
	// idempotent, so these fetch the same instances).
	d.aeSeconds = d.reg.Histogram(epidemic.MetricExchangeSeconds,
		"Initiator-side duration of one exchange, in seconds, by mechanism.",
		nil, epidemic.MetricLabel{Name: "mechanism", Value: "anti-entropy"})
	d.rumorSeconds = d.reg.Histogram(epidemic.MetricExchangeSeconds,
		"Initiator-side duration of one exchange, in seconds, by mechanism.",
		nil, epidemic.MetricLabel{Name: "mechanism", Value: "rumor"})
	if logger != nil {
		d.srv.SetLogger(logger.With("site", int(d.node.Site()), "component", "transport"))
	}
	d.srv.SetObserver(func(kind string, dur time.Duration) {
		label := epidemic.MetricLabel{Name: "kind", Value: kind}
		d.reg.Counter(epidemic.MetricTransportRequests,
			"Gossip requests served, by request kind.", label).Inc()
		d.reg.Histogram(epidemic.MetricTransportSeconds,
			"Gossip request handling duration in seconds.", nil, label).Observe(dur.Seconds())
	})
	epidemic.InstrumentWire(d.reg, d.wire)
}

func (d *daemon) syncLoop(every time.Duration) {
	defer close(d.syncDone)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// SyncPeers keeps unchanged peers (and their pooled
			// connections); only new or re-addressed sites dial.
			epidemic.SyncPeers(d.node, func(rec epidemic.MemberRecord) epidemic.Peer {
				return epidemic.NewTCPPeerWith(rec.Site, rec.Addr, d.peerOpts)
			})
		case <-d.stopSync:
			return
		}
	}
}

// GossipAddr returns the bound gossip address.
func (d *daemon) GossipAddr() string { return d.srv.Addr() }

// ClientAddr returns the bound client address.
func (d *daemon) ClientAddr() string { return d.clientLn.Addr().String() }

// AdminAddr returns the bound admin address, or "" when -admin is off.
func (d *daemon) AdminAddr() string {
	if d.adminLn == nil {
		return ""
	}
	return d.adminLn.Addr().String()
}

// Close stops everything, in reverse start order. Safe to call more than
// once (tests kill a daemon mid-run and still defer the cleanup).
func (d *daemon) Close() {
	d.closeOnce.Do(func() {
		close(d.stopSync)
		<-d.syncDone
		if d.history != nil {
			close(d.stopHistory)
			<-d.historyDone
		}
		if d.digests != nil {
			close(d.stopDigests)
		}
		<-d.digestsDone
		if d.adminSrv != nil {
			_ = d.adminSrv.Close()
		}
		d.node.Stop()
		_ = d.clientLn.Close()
		_ = d.srv.Close()
	})
}
