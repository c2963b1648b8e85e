// Package sim provides the database-level simulation harness: a Cluster of
// full node.Node replicas wired together in memory over a simulated clock,
// driven in deterministic synchronous cycles. It complements the abstract
// single-update spread engines in package core — where those regenerate the
// paper's tables, the Cluster exercises the complete stack (stores, death
// certificates, hot-rumor lists, redistribution) for the deletion and
// backup experiments of §1.5 and §2 and for the examples.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/obs"
	"epidemic/internal/obs/cluster"
	"epidemic/internal/obs/history"
	"epidemic/internal/spatial"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
	"epidemic/internal/topology"
)

// ClusterConfig configures a simulated cluster.
type ClusterConfig struct {
	// N is the number of replicas.
	N int
	// Rumor, Resolve, Redistribution, Tau1, Tau2, RetentionCount and
	// DirectMailOnUpdate are forwarded to every node.
	Rumor              core.RumorConfig
	Resolve            core.ResolveConfig
	Redistribution     core.Redistribution
	Tau1, Tau2         int64
	RetentionCount     int
	DirectMailOnUpdate bool
	// MailLoss is the probability that any direct-mailed update is lost.
	// The nodes are never started, so each one's outbox drains on the
	// goroutine that enqueued: mail is delivered before Update returns and
	// cycles stay deterministic under the simulated clock.
	MailLoss float64
	// Network, when set, places the replicas on a topology (it must have
	// exactly N sites) and weights every node's peer selection by the
	// spatial distribution SpatialForm with exponent SpatialA (§3) —
	// FormUniform/zero values keep selection uniform.
	Network     *topology.Network
	SpatialForm spatial.Form
	SpatialA    float64
	// StoreShards is forwarded to every node's replica store (lock-stripe
	// count, 0 = default).
	StoreShards int
	// TraceRing, when > 0, gives every node a hop-provenance tracer
	// retaining that many spans, so infection trees can be assembled from
	// the same run the Propagation tracker observes.
	TraceRing int
	// ClusterDigests, when true, gives every node a cluster digest
	// directory and wires the in-process peers to exchange digests on
	// anti-entropy and rumor-offer conversations — the observatory's
	// epidemic channel, testable against ground truth (every node IS the
	// cluster here). Digest stamps are simulated ticks.
	ClusterDigests bool
	// Seed makes runs reproducible.
	Seed int64
	// TickPerCycle advances the simulated clock this much each cycle
	// (default 1).
	TickPerCycle int64
	// ClockSkew, when set, offsets replica i's clock by ClockSkew[i] ticks
	// from the shared simulated time (timestamp.SkewedClockAt); replicas
	// past its end run on the shared time.
	ClockSkew []int64
	// Registry, when set, instruments every node into it: the per-site
	// epidemic_* counters and gauges, plus a shared propagation tracker
	// (one simulated tick = one second) whose t_last/t_avg/residue are
	// exposed through Propagation. Soak tests assert on these metrics
	// against cluster ground truth.
	Registry *obs.Registry
	// HistoryEvery, when > 0 (and Registry is set), samples every
	// registered metric into an on-node history.Sampler once per that many
	// cycles, stamped with the simulated clock — the deterministic twin of
	// the daemon's fixed-cadence sampler goroutine, so history-derived
	// trajectories can be checked against tracker ground truth exactly.
	HistoryEvery int
	// HistoryRetention bounds the history to that many samples per series
	// (default 1024).
	HistoryRetention int
}

// Cluster is a set of in-memory replicas plus the simulated clock they
// share.
type Cluster struct {
	cfg     ClusterConfig
	clock   *timestamp.Simulated
	nodes   []*node.Node
	peers   [][]*node.LocalPeer // peers[i] = peer objects owned by node i
	rng     *rand.Rand
	cycle   int
	prop    *obs.Propagation     // non-nil when cfg.Registry is set
	digests []*cluster.Directory // non-nil when cfg.ClusterDigests
	history *history.Sampler     // non-nil when cfg.HistoryEvery > 0
}

// NewCluster builds a fully connected cluster of n nodes.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("sim: cluster needs N >= 2, got %d", cfg.N)
	}
	if cfg.TickPerCycle <= 0 {
		cfg.TickPerCycle = 1
	}
	clock := timestamp.NewSimulated(1)
	c := &Cluster{
		cfg:   cfg,
		clock: clock,
		nodes: make([]*node.Node, cfg.N),
		peers: make([][]*node.LocalPeer, cfg.N),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.ClusterDigests {
		c.digests = make([]*cluster.Directory, cfg.N)
		for i := range c.digests {
			c.digests[i] = cluster.NewDirectory(int32(i), 0)
		}
	}
	for i := 0; i < cfg.N; i++ {
		site := timestamp.SiteID(i)
		var dir *cluster.Directory
		if c.digests != nil {
			dir = c.digests[i]
		}
		siteClock := clock.ClockAt(site)
		if i < len(cfg.ClockSkew) {
			siteClock = clock.SkewedClockAt(site, cfg.ClockSkew[i])
		}
		n, err := node.New(node.Config{
			Site:               site,
			Clock:              siteClock,
			Rumor:              cfg.Rumor,
			Resolve:            cfg.Resolve,
			Redistribution:     cfg.Redistribution,
			Tau1:               cfg.Tau1,
			Tau2:               cfg.Tau2,
			RetentionCount:     cfg.RetentionCount,
			DirectMailOnUpdate: cfg.DirectMailOnUpdate,
			StoreShards:        cfg.StoreShards,
			TraceRing:          cfg.TraceRing,
			Digests:            dir,
			Seed:               cfg.Seed + int64(i) + 1,
		})
		if err != nil {
			return nil, err
		}
		c.nodes[i] = n
	}
	if cfg.Registry != nil {
		// One simulated tick is treated as one second, so the propagation
		// histogram's t_last/t_avg read directly in cycles.
		hist := cfg.Registry.Histogram(obs.MetricUpdatePropagation,
			"Delay from an update's origination to its application at a replica, in seconds.", nil)
		c.prop = obs.NewPropagation(1, hist)
		for _, n := range c.nodes {
			n.SetOnEvent(obs.InstrumentNode(cfg.Registry, n, obs.ObserveOptions{
				Propagation:    c.prop,
				SecondsPerUnit: 1,
				SiteLabel:      true,
			}))
		}
	}
	if cfg.Registry != nil && cfg.HistoryEvery > 0 {
		retain := cfg.HistoryRetention
		if retain <= 0 {
			retain = 1024
		}
		// One simulated tick = one second, matching the propagation
		// tracker's SecondsPerUnit above; the Step only sizes the rings —
		// stepAllIndexed drives the cadence deterministically.
		step := time.Duration(cfg.TickPerCycle*int64(cfg.HistoryEvery)) * time.Second
		c.history = history.New(cfg.Registry, history.Config{
			Step:           step,
			Retention:      step * time.Duration(retain),
			SecondsPerUnit: 1,
		})
	}
	var sel spatial.Selector
	if cfg.Network != nil && cfg.SpatialForm != 0 && cfg.SpatialForm != spatial.FormUniform {
		if cfg.Network.NumSites() != cfg.N {
			return nil, fmt.Errorf("sim: network has %d sites, cluster has %d", cfg.Network.NumSites(), cfg.N)
		}
		var err error
		sel, err = spatial.New(cfg.Network, cfg.SpatialForm, cfg.SpatialA)
		if err != nil {
			return nil, err
		}
	}
	for i, n := range c.nodes {
		peerObjs := make([]*node.LocalPeer, 0, cfg.N-1)
		peerIfc := make([]node.Peer, 0, cfg.N-1)
		var weights []float64
		var probs []float64
		if sel != nil {
			probs = spatial.Probabilities(sel, i)
		}
		for j, target := range c.nodes {
			if j == i {
				continue
			}
			lp := node.NewLocalPeer(target, cfg.Seed+int64(i*cfg.N+j))
			lp.SetMailLoss(cfg.MailLoss)
			if c.digests != nil {
				lp.SetDigestDirectory(c.digests[i])
			}
			peerObjs = append(peerObjs, lp)
			peerIfc = append(peerIfc, lp)
			if probs != nil {
				weights = append(weights, probs[j])
			}
		}
		c.peers[i] = peerObjs
		if weights != nil {
			if err := n.SetPeersWeighted(peerIfc, weights); err != nil {
				return nil, fmt.Errorf("sim: weighting peers of site %d: %w", i, err)
			}
		} else {
			n.SetPeers(peerIfc)
		}
	}
	return c, nil
}

// Node returns replica i.
func (c *Cluster) Node(i int) *node.Node { return c.nodes[i] }

// N returns the cluster size.
func (c *Cluster) N() int { return c.cfg.N }

// Cycle returns the number of cycles stepped so far.
func (c *Cluster) Cycle() int { return c.cycle }

// Clock returns the shared simulated time source.
func (c *Cluster) Clock() *timestamp.Simulated { return c.clock }

// Propagation returns the cluster-wide update-propagation tracker, or nil
// when the cluster was built without a Registry.
func (c *Cluster) Propagation() *obs.Propagation { return c.prop }

// History returns the deterministic-clock metric sampler, or nil when the
// cluster was built without HistoryEvery.
func (c *Cluster) History() *history.Sampler { return c.history }

// DigestDirectory returns site i's digest directory (nil when the cluster
// was built without ClusterDigests).
func (c *Cluster) DigestDirectory(i int) *cluster.Directory {
	if c.digests == nil {
		return nil
	}
	return c.digests[i]
}

// RefreshDigests makes every node snapshot a fresh self digest at the
// current simulated time — the sim analogue of the daemon's periodic
// collector tick. Call between step cycles; the digests then spread on the
// next conversations.
func (c *Cluster) RefreshDigests() {
	if c.digests == nil {
		return
	}
	now := c.clock.Read()
	for i, n := range c.nodes {
		st := n.Store()
		s := n.Stats()
		c.digests[i].SetSelf(cluster.Digest{
			Stamp:     now,
			StoreKeys: int64(len(st.Keys())),
			Checksum:  st.Checksum(),
			HotRumors: int64(len(n.HotEntries())),
			Peers:     int64(len(n.Peers())),
			AERuns:    int64(s.AntiEntropyRuns),
			RumorRuns: int64(s.RumorRuns),
		})
	}
}

// SetPartition isolates site from the rest of the cluster (or heals the
// partition): nobody can converse with it and it can converse with nobody.
func (c *Cluster) SetPartition(site int, down bool) {
	for i, peerObjs := range c.peers {
		for _, p := range peerObjs {
			if i == site || p.ID() == timestamp.SiteID(site) {
				p.SetDown(down)
			}
		}
	}
}

// FlushMail waits for every node's outbound mail engine to drain,
// reporting whether all drains completed. The cluster's nodes drain on
// enqueue, so it returns true at once unless mail is still in flight on
// another goroutine.
func (c *Cluster) FlushMail() bool {
	ok := true
	for _, n := range c.nodes {
		if !n.FlushMail(0) {
			ok = false
		}
	}
	return ok
}

// StepRumor runs one rumor-mongering cycle: every node executes StepRumor
// once, in random order, then the clock ticks.
func (c *Cluster) StepRumor() {
	c.stepAll(func(n *node.Node) { _ = n.StepRumor() })
}

// StepAntiEntropy runs one anti-entropy cycle.
func (c *Cluster) StepAntiEntropy() {
	c.stepAll(func(n *node.Node) { _ = n.StepAntiEntropy() })
}

// StepActivityExchange runs one §1.5 combined peel-back/rumor round:
// every node ships activity-ordered batches to one partner until checksum
// agreement. It returns the total entries shipped this cycle. Per-node
// counts land in a slice indexed by node, so the reduction is independent
// of the (randomized) step order.
func (c *Cluster) StepActivityExchange(batch int) int {
	sent := make([]int, len(c.nodes))
	c.stepAllIndexed(func(i int, n *node.Node) {
		sent[i], _ = n.StepActivityExchange(batch)
	})
	total := 0
	for _, s := range sent {
		total += s
	}
	return total
}

// StepGC runs death-certificate expiry at every node.
func (c *Cluster) StepGC() {
	for _, n := range c.nodes {
		n.StepGC()
	}
}

func (c *Cluster) stepAll(step func(*node.Node)) {
	c.stepAllIndexed(func(_ int, n *node.Node) { step(n) })
}

// stepAllIndexed steps every node once in random order, passing each node's
// index so callers can collect per-node results into an indexed slice
// rather than accumulating in visit order.
func (c *Cluster) stepAllIndexed(step func(int, *node.Node)) {
	order := c.rng.Perm(len(c.nodes))
	for _, i := range order {
		step(i, c.nodes[i])
	}
	c.clock.Advance(c.cfg.TickPerCycle)
	c.cycle++
	if c.history != nil && c.cycle%c.cfg.HistoryEvery == 0 {
		c.history.Sample(c.clock.Read())
	}
}

// RunRumorToQuiescence steps rumor cycles until no node holds hot rumors
// or maxCycles elapses, returning the cycles executed.
func (c *Cluster) RunRumorToQuiescence(maxCycles int) int {
	start := c.cycle
	for c.cycle-start < maxCycles {
		if !c.AnyHot() {
			break
		}
		c.StepRumor()
	}
	return c.cycle - start
}

// RunAntiEntropyToConsistency steps anti-entropy cycles until all replicas
// agree or maxCycles elapses.
func (c *Cluster) RunAntiEntropyToConsistency(maxCycles int) (cycles int, consistent bool) {
	start := c.cycle
	for c.cycle-start < maxCycles {
		if c.Consistent() {
			return c.cycle - start, true
		}
		c.StepAntiEntropy()
	}
	return c.cycle - start, c.Consistent()
}

// AnyHot reports whether any node still holds hot rumors.
func (c *Cluster) AnyHot() bool {
	for _, n := range c.nodes {
		if len(n.HotEntries()) > 0 {
			return true
		}
	}
	return false
}

// Consistent reports whether all replicas hold identical content.
func (c *Cluster) Consistent() bool {
	first := c.nodes[0].Store()
	for _, n := range c.nodes[1:] {
		if !store.ContentEqual(first, n.Store()) {
			return false
		}
	}
	return true
}

// CountWithValue returns how many replicas see the given value for key.
func (c *Cluster) CountWithValue(key string, want string) int {
	count := 0
	for _, n := range c.nodes {
		if v, ok := n.Lookup(key); ok && string(v) == want {
			count++
		}
	}
	return count
}

// CountDeleted returns how many replicas consider key deleted or absent.
func (c *Cluster) CountDeleted(key string) int {
	count := 0
	for _, n := range c.nodes {
		if _, ok := n.Lookup(key); !ok {
			count++
		}
	}
	return count
}

// TotalStats sums all node statistics.
func (c *Cluster) TotalStats() node.Stats {
	var total node.Stats
	for _, n := range c.nodes {
		s := n.Stats()
		total.UpdatesAccepted += s.UpdatesAccepted
		total.MailSent += s.MailSent
		total.MailFailed += s.MailFailed
		total.AntiEntropyRuns += s.AntiEntropyRuns
		total.RumorRuns += s.RumorRuns
		total.EntriesSent += s.EntriesSent
		total.EntriesReceived += s.EntriesReceived
		total.EntriesApplied += s.EntriesApplied
		total.RumorsOffered += s.RumorsOffered
		total.RumorsWanted += s.RumorsWanted
		total.FullCompares += s.FullCompares
		total.Redistributed += s.Redistributed
		total.CertificatesExpired += s.CertificatesExpired
		total.OutboxEnqueued += s.OutboxEnqueued
		total.OutboxCoalesced += s.OutboxCoalesced
		total.OutboxDropped += s.OutboxDropped
		total.OutboxBatches += s.OutboxBatches
		total.OutboxDepth += s.OutboxDepth
		total.MailBatchesReceived += s.MailBatchesReceived
	}
	return total
}
