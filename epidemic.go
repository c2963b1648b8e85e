// Package epidemic is a Go implementation of the randomized algorithms of
// Demers et al., "Epidemic Algorithms for Replicated Database Maintenance"
// (PODC 1987): direct mail, anti-entropy, and rumor mongering for driving
// a database replicated at many sites toward eventual consistency, plus
// deletion via (dormant) death certificates and nonuniform spatial
// distributions for partner selection.
//
// The package is a facade over the implementation packages:
//
//   - Node / NodeConfig — a replica runtime: client Update/Delete/Lookup,
//     periodic anti-entropy, rumor mongering of hot updates, and
//     death-certificate garbage collection.
//   - Cluster — an in-memory cluster of nodes on a simulated clock, driven
//     in deterministic cycles (ideal for tests and experiments).
//   - ServeTCP / NewTCPPeer — gossip between real processes over TCP.
//   - SpreadRumor / SpreadAntiEntropy — the abstract single-update spread
//     simulators behind every table and figure in the paper.
//   - NewUniformSelector / NewSpatialSelector — partner-selection
//     distributions, including the paper's equation (3.1.1).
//
// Quick start:
//
//	cluster, _ := epidemic.NewCluster(epidemic.ClusterConfig{N: 8, Seed: 1})
//	cluster.Node(0).Update("user/alice", epidemic.Value("MV:1.17#42"))
//	cluster.RunRumorToQuiescence(100)
//	cluster.RunAntiEntropyToConsistency(100)
//	v, ok := cluster.Node(7).Lookup("user/alice")
package epidemic

import (
	"io"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/obs"
	"epidemic/internal/obs/cluster"
	"epidemic/internal/obs/history"
	"epidemic/internal/obs/trace"
	"epidemic/internal/sim"
	"epidemic/internal/spatial"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
	"epidemic/internal/topology"
	"epidemic/internal/transport"
)

// Re-exported core types. These are aliases, so values flow freely between
// the facade and the implementation packages.
type (
	// SiteID identifies a database replica.
	SiteID = timestamp.SiteID
	// Timestamp is a globally unique, totally ordered timestamp.
	Timestamp = timestamp.T
	// Clock issues timestamps for one site.
	Clock = timestamp.Clock
	// SimulatedClock is a manually advanced time source for deterministic
	// runs.
	SimulatedClock = timestamp.Simulated

	// Value is a database value; nil means deleted.
	Value = store.Value
	// Entry is a (key, value, timestamp) triple, possibly a death
	// certificate.
	Entry = store.Entry
	// Store is one replica's database.
	Store = store.Store

	// Mode selects push, pull, or push-pull exchanges.
	Mode = core.Mode
	// RumorConfig selects a rumor-mongering variant (§1.4 of the paper).
	RumorConfig = core.RumorConfig
	// AntiEntropyConfig configures the anti-entropy spread simulator.
	AntiEntropyConfig = core.AntiEntropyConfig
	// ResolveConfig configures database-level anti-entropy conversations.
	ResolveConfig = core.ResolveConfig
	// CompareStrategy selects full / checksum / recent-list / peel-back
	// database comparison (§1.3).
	CompareStrategy = core.CompareStrategy
	// Redistribution selects the §1.5 policy for repaired updates.
	Redistribution = core.Redistribution
	// SpreadResult reports residue / traffic / delay for one spread.
	SpreadResult = core.SpreadResult
	// ExchangeStats reports one anti-entropy conversation's work.
	ExchangeStats = core.ExchangeStats

	// Node is a replica runtime.
	Node = node.Node
	// NodeConfig configures a Node.
	NodeConfig = node.Config
	// NodeStats counts a node's protocol activity.
	NodeStats = node.Stats
	// Peer is a remote replica as seen from one node: anti-entropy, rumor
	// offers and pushes, the checksum probe, and MailBatch, the one way
	// direct mail is delivered.
	Peer = node.Peer
	// LocalPeer is an in-process Peer with failure injection.
	LocalPeer = node.LocalPeer
	// OutboxConfig tunes the outbound mail engine every direct mail leaves
	// through (NodeConfig.Outbox): worker count, per-peer queue bound,
	// retry backoff, and the shutdown flush timeout. The workers run once
	// Node.Start does; an unstarted node drains each enqueue on the caller.
	OutboxConfig = node.OutboxConfig
	// MailBatch is one outbound-queue drain: coalesced entries for a
	// single peer, shipped in one frame and stamped with the sending site.
	MailBatch = node.MailBatch

	// Cluster is an in-memory cluster on a simulated clock.
	Cluster = sim.Cluster
	// ClusterConfig configures a Cluster.
	ClusterConfig = sim.ClusterConfig

	// Selector picks random exchange partners.
	Selector = spatial.Selector
	// SpatialForm identifies a spatial distribution family (§3).
	SpatialForm = spatial.Form

	// Network is a topology with sites placed on it.
	Network = topology.Network
	// CIN is the synthetic Xerox Corporate Internet topology.
	CIN = topology.CIN

	// TCPServer exposes a node over TCP.
	TCPServer = transport.Server
	// TCPServerOptions tunes a TCPServer: its Codec must name the one wire
	// format, and its DisableUDP is ignored.
	TCPServerOptions = transport.ServerOptions
	// TCPPeer is a Peer over TCP.
	TCPPeer = transport.TCPPeer
	// TCPPeerOptions tunes a TCPPeer's connection pool, per-request
	// deadline, peel-back budget and shard repair.
	TCPPeerOptions = transport.PeerOptions
	// WireStats aggregates client-side pool and wire-traffic counters,
	// typically shared by every TCPPeer a process dials.
	WireStats = transport.WireStats
	// WireSnapshot is a point-in-time copy of WireStats.
	WireSnapshot = transport.WireSnapshot

	// NodeEvent is one observable node action, delivered to the observer
	// installed with Node.SetOnEvent.
	NodeEvent = node.Event
	// MetricsRegistry collects counters, gauges and histograms and renders
	// them in Prometheus text exposition format.
	MetricsRegistry = obs.Registry
	// MetricLabel is one name=value label on a metric series.
	MetricLabel = obs.Label
	// Histogram is a metrics histogram with fixed upper bounds.
	Histogram = obs.Histogram
	// EventRing is the bounded buffer of recent node events behind the
	// admin /events endpoint.
	EventRing = obs.EventRing
	// EventRecord is one node event in wire-friendly form.
	EventRecord = obs.EventRecord
	// PropagationTracker derives the paper's t_last / t_avg / residue from
	// per-update infection timestamps.
	PropagationTracker = obs.Propagation
	// ObserveOptions configures InstrumentNode.
	ObserveOptions = obs.ObserveOptions

	// Tracer records per-update hop spans at one replica; enable it with
	// NodeConfig.TraceRing. A nil *Tracer is valid and disables tracing.
	Tracer = trace.Tracer
	// TraceSpan is one hop of one update's propagation.
	TraceSpan = trace.Span
	// TraceHop is the compact provenance envelope exchange payloads carry
	// alongside each entry.
	TraceHop = trace.Hop
	// TraceMechanism identifies which epidemic process delivered an update.
	TraceMechanism = trace.Mechanism
	// TraceDump is one replica's span report, as served by gossipd's TRACE
	// verb and /trace admin route.
	TraceDump = trace.Dump
	// InfectionTree is the reconstructed propagation tree of one update.
	InfectionTree = trace.Tree
	// InfectionTreeNode is one site's position in an InfectionTree.
	InfectionTreeNode = trace.TreeNode
	// TraceSummary packages a traced update's convergence observables
	// (t_last, t_avg, residue, hop histogram, mechanism counts).
	TraceSummary = trace.Summary

	// ClusterDigest is one replica's compact health snapshot, spread
	// epidemically by piggybacking on gossip exchanges.
	ClusterDigest = cluster.Digest
	// ClusterDirectory holds one replica's view of every site's digest
	// (newest-stamp-wins merge). A nil *ClusterDirectory is valid and
	// disables the observatory. Set it as NodeConfig.Digests and
	// TCPPeerOptions.Digests.
	ClusterDirectory = cluster.Directory
	// ClusterLatencySummary is a digest's per-mechanism exchange-latency
	// quantile pair.
	ClusterLatencySummary = cluster.LatencySummary
	// ClusterStall is one convergence problem the stall detector flagged.
	ClusterStall = cluster.Stall
	// ClusterStallConfig tunes the stall detector's windows.
	ClusterStallConfig = cluster.StallConfig
	// ClusterStallDetector turns a digest view into convergence stalls.
	ClusterStallDetector = cluster.StallDetector
	// ClusterSiteStatus is one digest decorated with reader-side staleness.
	ClusterSiteStatus = cluster.SiteStatus
	// ClusterStatusReply is the /cluster response body: one replica's view
	// of the whole cluster plus the stalls it detects.
	ClusterStatusReply = cluster.StatusReply
	// ClusterTrends is the history-derived rates-and-trajectories block a
	// /cluster reply (and STATSJSON) carries when the telemetry sampler is
	// running.
	ClusterTrends = cluster.Trends
	// ClusterEdgeTracker reduces level-triggered stall lists to rising
	// edges — exactly one trigger per distinct (site, reason) incident.
	ClusterEdgeTracker = cluster.EdgeTracker

	// MetricSeriesView is one registered series as seen by
	// MetricsRegistry.VisitSeries.
	MetricSeriesView = obs.SeriesView
	// HistorySampler records every registered metric into bounded on-node
	// ring-buffer time series with windowed Rate/Delta/MinMax queries.
	HistorySampler = history.Sampler
	// HistoryConfig shapes a HistorySampler (step, retention, stamp scale,
	// histogram quantiles).
	HistoryConfig = history.Config
	// HistoryPoint is one retained sample: stamp plus value.
	HistoryPoint = history.Point
	// FlightRecorder captures correlated anomaly snapshots (events, spans,
	// time series, digests, wire stats) into a bounded on-disk dump dir.
	FlightRecorder = history.Recorder
	// FlightDumpMeta describes one flight dump on disk.
	FlightDumpMeta = history.DumpMeta
)

// Metric names registered by InstrumentNode (and, for the transport pair,
// by the gossipd admin wiring).
const (
	MetricUpdatesAccepted     = obs.MetricUpdatesAccepted
	MetricMailSent            = obs.MetricMailSent
	MetricMailFailures        = obs.MetricMailFailures
	MetricAntiEntropyRuns     = obs.MetricAntiEntropyRuns
	MetricRumorRounds         = obs.MetricRumorRounds
	MetricEntriesSent         = obs.MetricEntriesSent
	MetricEntriesReceived     = obs.MetricEntriesReceived
	MetricEntriesApplied      = obs.MetricEntriesApplied
	MetricRumorsOffered       = obs.MetricRumorsOffered
	MetricRumorsWanted        = obs.MetricRumorsWanted
	MetricFullCompares        = obs.MetricFullCompares
	MetricRedistributed       = obs.MetricRedistributed
	MetricCertificatesExpired = obs.MetricCertificatesExpired
	MetricUpdatePropagation   = obs.MetricUpdatePropagation
	MetricPropagationTracked  = obs.MetricPropagationTracked
	MetricHotRumors           = obs.MetricHotRumors
	MetricPeers               = obs.MetricPeers
	MetricStoreKeys           = obs.MetricStoreKeys
	MetricStoreShards         = obs.MetricStoreShards
	MetricOutboxEnqueued      = obs.MetricOutboxEnqueued
	MetricOutboxCoalesced     = obs.MetricOutboxCoalesced
	MetricOutboxDropped       = obs.MetricOutboxDropped
	MetricOutboxBatches       = obs.MetricOutboxBatches
	MetricOutboxQueueDepth    = obs.MetricOutboxQueueDepth
	MetricMailBatchesReceived = obs.MetricMailBatchesReceived
	MetricTransportRequests   = obs.MetricTransportRequests
	MetricTransportSeconds    = obs.MetricTransportSeconds
	MetricExchangeSeconds     = obs.MetricExchangeSeconds
	MetricClusterSites        = obs.MetricClusterSites
	MetricClusterStaleSites   = obs.MetricClusterStaleSites
	MetricClusterStalls       = obs.MetricClusterStalls
	MetricClusterResidue      = obs.MetricClusterResidue
)

// Stall reasons reported by the ClusterStallDetector, and the pseudo-site
// marking a cluster-wide stall.
const (
	StallStaleDigest      = cluster.ReasonStaleDigest
	StallResidueStuck     = cluster.ReasonResidueStuck
	StallChecksumMismatch = cluster.ReasonChecksumMismatch
	StallClusterWide      = cluster.ClusterWide
)

// DefaultDigestShareLimit caps the digests piggybacked per exchange when
// NewClusterDirectory is given a limit <= 0.
const DefaultDigestShareLimit = cluster.DefaultShareLimit

// NewClusterDirectory builds a digest directory for one replica. Wire it
// into NodeConfig.Digests (server side) and TCPPeerOptions.Digests
// (client side) and digests ride every gossip exchange for free.
func NewClusterDirectory(self SiteID, shareLimit int) *ClusterDirectory {
	return cluster.NewDirectory(int32(self), shareLimit)
}

// NewClusterStallDetector builds a convergence stall detector; feed it the
// same directory's Snapshot on a fixed cadence.
func NewClusterStallDetector(cfg ClusterStallConfig) *ClusterStallDetector {
	return cluster.NewStallDetector(cfg)
}

// BuildClusterStatus assembles the /cluster response shape from a digest
// view at time now (stamp units); staleAfter is the staleness window in
// stamp units and secondsPerUnit the stamp-to-seconds scale (0 = 1e-9).
func BuildClusterStatus(self SiteID, now int64, digests []ClusterDigest, stalls []ClusterStall, staleAfter int64, secondsPerUnit float64) ClusterStatusReply {
	return cluster.BuildStatus(int32(self), now, digests, stalls, staleAfter, secondsPerUnit)
}

// NewClusterEdgeTracker builds an edge tracker; feed it every stall
// detector pass and act only on the rising edges it returns.
func NewClusterEdgeTracker() *ClusterEdgeTracker { return cluster.NewEdgeTracker() }

// NewHistorySampler builds a metric time-series sampler over a registry.
// Drive it with Sample (deterministic stamps) or Run (wall clock).
func NewHistorySampler(reg *MetricsRegistry, cfg HistoryConfig) *HistorySampler {
	return history.New(reg, cfg)
}

// NewFlightRecorder builds an anomaly flight recorder dumping into dir,
// keeping at most max dumps (<= 0 selects the default bound).
func NewFlightRecorder(dir string, max int) (*FlightRecorder, error) {
	return history.NewRecorder(dir, max)
}

// Metric names registered by InstrumentWire for the client-side wire
// protocol (connection pool and per-exchange traffic).
const (
	MetricWireDials              = obs.MetricWireDials
	MetricWireRedials            = obs.MetricWireRedials
	MetricWireReuses             = obs.MetricWireReuses
	MetricWireOpenConns          = obs.MetricWireOpenConns
	MetricWireBytesSent          = obs.MetricWireBytesSent
	MetricWireBytesReceived      = obs.MetricWireBytesReceived
	MetricWireExchanges          = obs.MetricWireExchanges
	MetricWireEntriesPerExchange = obs.MetricWireEntriesPerExchange
	MetricWireBytesPerExchange   = obs.MetricWireBytesPerExchange
	MetricWireMsgsBinary         = obs.MetricWireMsgsBinary
	MetricWireShardVecExchanges  = obs.MetricWireShardVecExchanges
	MetricWireShardVecShards     = obs.MetricWireShardVecShards
	MetricWireShardVecDowngrades = obs.MetricWireShardVecDowngrades
	MetricWireMailBatches        = obs.MetricWireMailBatches
	MetricWireMailBatchEntries   = obs.MetricWireMailBatchEntries
)

// Exchange modes.
const (
	Push     = core.Push
	Pull     = core.Pull
	PushPull = core.PushPull
)

// Comparison strategies (§1.3).
const (
	CompareFull        = core.CompareFull
	CompareChecksum    = core.CompareChecksum
	CompareRecent      = core.CompareRecent
	ComparePeelBack    = core.ComparePeelBack
	CompareShardVector = core.CompareShardVector
)

// Redistribution policies (§1.5).
const (
	RedistributeNone  = core.RedistributeNone
	RedistributeMail  = core.RedistributeMail
	RedistributeRumor = core.RedistributeRumor
)

// Node event kinds (NodeEvent.Kind), for observers chained around
// InstrumentNode's callback.
const (
	NodeEventAntiEntropy  = node.EventAntiEntropy
	NodeEventRumor        = node.EventRumor
	NodeEventRedistribute = node.EventRedistribute
	NodeEventGC           = node.EventGC
	NodeEventMailFailed   = node.EventMailFailed
	NodeEventUpdate       = node.EventUpdate
	NodeEventApply        = node.EventApply
)

// Spatial distribution families (§3).
const (
	FormUniform  = spatial.FormUniform
	FormDistance = spatial.FormDistance
	FormQ        = spatial.FormQ
	FormPaper    = spatial.FormPaper
)

// HuntUnlimited makes a connection-limited sender hunt until it finds an
// open partner.
const HuntUnlimited = core.HuntUnlimited

// Trace mechanisms: which epidemic process delivered an update to a
// replica.
const (
	MechUnknown     = trace.MechUnknown
	MechOrigin      = trace.MechOrigin
	MechDirectMail  = trace.MechDirectMail
	MechRumorPush   = trace.MechRumorPush
	MechRumorPull   = trace.MechRumorPull
	MechAntiEntropy = trace.MechAntiEntropy
	MechPeelBack    = trace.MechPeelBack
)

// TraceHopUnknown is the hop count of a span whose causal distance from
// the origin could not be established.
const TraceHopUnknown = trace.HopUnknown

// DefaultTraceRing is the span ring capacity selected by NewTracer (and
// NodeConfig.TraceRing values <= 0 passed to it).
const DefaultTraceRing = trace.DefaultRingSize

// NewTracer builds a standalone hop-span tracer for one site (most users
// set NodeConfig.TraceRing and let the node own it).
func NewTracer(site SiteID, capacity int) *Tracer { return trace.NewTracer(site, capacity) }

// AssembleTrace reconstructs the infection tree for key from spans
// federated across any number of replicas (see Tracer and gossipctl
// trace).
func AssembleTrace(key string, spans []TraceSpan) *InfectionTree {
	return trace.Assemble(key, spans)
}

// NewNode builds a replica runtime. See NodeConfig for the knobs; zero
// values select the paper-recommended defaults (push-pull peel-back
// anti-entropy, rumor redistribution).
func NewNode(cfg NodeConfig) (*Node, error) { return node.New(cfg) }

// NewLocalPeer wraps an in-process node as a Peer.
func NewLocalPeer(target *Node, seed int64) *LocalPeer { return node.NewLocalPeer(target, seed) }

// NewCluster builds a fully connected in-memory cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return sim.NewCluster(cfg) }

// ServeTCP exposes a node to remote peers on addr (":0" for ephemeral),
// serving the framed TCP protocol. Every request kind, rumor pushes
// included, rides its pooled sessions; no datagram socket is bound.
func ServeTCP(n *Node, addr string) (*TCPServer, error) { return transport.Serve(n, addr) }

// ServeTCPWith exposes a node with explicit server options. It refuses a
// Codec other than "" or "binary"; DisableUDP is ignored.
func ServeTCPWith(n *Node, addr string, opts TCPServerOptions) (*TCPServer, error) {
	return transport.ServeWith(n, addr, opts)
}

// NewTCPPeer addresses a remote replica by site ID and "host:port" with
// default pool and peel-back options.
func NewTCPPeer(id SiteID, addr string) *TCPPeer { return transport.NewTCPPeer(id, addr) }

// NewTCPPeerWith addresses a remote replica with explicit pool, deadline
// and peel-back options.
func NewTCPPeerWith(id SiteID, addr string, opts TCPPeerOptions) *TCPPeer {
	return transport.NewTCPPeerWith(id, addr, opts)
}

// NewStore builds a bare replica store (most users want NewNode instead).
func NewStore(site SiteID, clock Clock) *Store { return store.New(site, clock) }

// NewShardedStore builds a bare replica store with an explicit lock-stripe
// count (rounded up to a power of two; <= 0 selects DefaultStoreShards).
func NewShardedStore(site SiteID, clock Clock, shards int) *Store {
	return store.NewSharded(site, clock, shards)
}

// DefaultStoreShards is the store's default lock-stripe count.
const DefaultStoreShards = store.DefaultShards

// NewSimulatedClock builds a shared simulated time source.
func NewSimulatedClock(start int64) *SimulatedClock { return timestamp.NewSimulated(start) }

// WallClock builds a real-time clock for one site.
func WallClock(site SiteID) Clock { return timestamp.WallClock(site) }

// DefaultRumorConfig is the paper's baseline rumor variant.
func DefaultRumorConfig() RumorConfig { return core.DefaultRumorConfig() }

// ResolveDifference runs one anti-entropy conversation between two stores.
func ResolveDifference(cfg ResolveConfig, s, p *Store) (ExchangeStats, error) {
	return core.ResolveDifference(cfg, s, p)
}

// NewUniformSelector selects partners uniformly among n sites. It
// returns an error when n < 2, since a single site has no possible
// partner (Pick would otherwise have to invent one).
func NewUniformSelector(n int) (Selector, error) { return spatial.NewUniform(n) }

// NewSpatialSelector builds a nonuniform partner-selection distribution
// over a network (§3). Use FormPaper with a=2 for the distribution
// deployed on the Xerox Corporate Internet.
func NewSpatialSelector(nw *Network, form SpatialForm, a float64) (Selector, error) {
	return spatial.New(nw, form, a)
}

// SelectorProbabilities returns site i's full partner distribution (index
// = site, self = 0). Use it to derive per-peer weights for
// Node.SetPeersWeighted when deploying a spatial distribution on real
// nodes.
func SelectorProbabilities(sel Selector, i int) []float64 {
	return spatial.Probabilities(sel, i)
}

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEventRing builds a bounded event buffer holding the last capacity
// records (a default size when capacity <= 0).
func NewEventRing(capacity int) *EventRing { return obs.NewEventRing(capacity) }

// NewPropagationTracker builds a per-update infection tracker.
// secondsPerUnit scales timestamp units to seconds (1e-9 for wall-clock
// nanoseconds, 1 to treat simulated ticks as seconds); hist, when non-nil,
// receives one observation per new infection.
func NewPropagationTracker(secondsPerUnit float64, hist *Histogram) *PropagationTracker {
	return obs.NewPropagation(secondsPerUnit, hist)
}

// InstrumentNode registers n's counters and gauges on reg and returns the
// event observer that completes the bridge; install it with n.SetOnEvent.
func InstrumentNode(reg *MetricsRegistry, n *Node, opts ObserveOptions) func(NodeEvent) {
	return obs.InstrumentNode(reg, n, opts)
}

// InstrumentWire registers ws's pool and traffic counters on reg and
// installs the exchange observer feeding the per-exchange histograms.
func InstrumentWire(reg *MetricsRegistry, ws *WireStats) { obs.InstrumentWire(reg, ws) }

// ValidateExposition checks that r is well-formed Prometheus text
// exposition format (version 0.0.4), returning the first problem found.
func ValidateExposition(r io.Reader) error { return obs.ValidateExposition(r) }

// NewCIN builds the synthetic Xerox Corporate Internet topology used by
// the Table 4/5 reproductions.
func NewCIN() (*CIN, error) { return topology.NewCIN() }

// NewLineNetwork builds a linear network of n sites (§3's introductory
// topology).
func NewLineNetwork(n int) (*Network, error) { return topology.Line(n) }

// NewMeshNetwork builds a D-dimensional rectilinear mesh of sites.
func NewMeshNetwork(dims ...int) (*Network, error) { return topology.Mesh(dims...) }
