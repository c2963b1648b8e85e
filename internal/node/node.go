// Package node implements a production-style replica runtime around the
// epidemic protocols: each Node owns a store.Store replica and runs the
// paper's full update-distribution stack — direct mail on update (§1.2),
// periodic anti-entropy (§1.3), rumor mongering of hot updates (§1.4) with
// anti-entropy as the backup mechanism (§1.5), and the death-certificate
// lifecycle with dormant retention (§2).
//
// Nodes are transport-agnostic: they talk to other replicas through the
// Peer interface, implemented in-process by LocalPeer and over TCP by
// package transport.
package node

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/obs/cluster"
	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// Peer is a remote replica as seen from one node. Implementations must be
// safe for concurrent use.
type Peer interface {
	// ID returns the peer's site ID.
	ID() timestamp.SiteID
	// AntiEntropy runs one ResolveDifference conversation between local
	// and the peer's replica. tr, when non-nil, is the initiator's tracer:
	// implementations backfill SenderHop on the returned stats' Repairs so
	// both parties can stamp causal hop spans. A nil tr disables tracing.
	// How much of cfg applies is the implementation's: an in-process peer
	// runs cfg.Strategy and cfg.Mode, while the wire peer always runs
	// CompareShardVector's push-pull conversation (core.Reconcile) and
	// reads only Tau1, BatchSize and ReactivateDormant.
	AntiEntropy(cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer) (core.ExchangeStats, error)
	// OfferRumors opens a rumor conversation with the identities of the
	// caller's hot rumors: Key, Stamp and Activation, no Value (store.ID).
	// want[i] reports whether id i's entry would change the peer's replica
	// — the rumor feedback bit vector of §1.4, learnt before any payload
	// moves. entries are the peer's own hot rumors that the offer does not
	// already cover, with their provenance envelopes (nil when the peer
	// does not trace). An empty offer is a plain pull.
	OfferRumors(ids []store.Entry) (want []bool, entries []store.Entry, hops []trace.Hop, err error)
	// PushRumors delivers full entries to the peer — after an offer, the
	// wanted ones; needed[i] reports whether entry i changed the peer's
	// replica. hops carries one provenance envelope per entry, or nil when
	// tracing is disabled.
	PushRumors(entries []store.Entry, hops []trace.Hop) (needed []bool, err error)
	// Checksum returns the peer's live database checksum at its current
	// clock with the given dormancy threshold — the agreement probe of
	// §1.5's combined peel-back / rumor scheme.
	Checksum(tau1 int64) (uint64, error)
	// MailBatch posts one outbox drain to the peer's mailbox (PostMail of
	// §1.2) in one delivery. A non-nil error means the whole batch was
	// lost; a silently lost entry returns nil, as PostMail's would.
	MailBatch(b MailBatch) error
}

// Config configures a Node. Zero values get sensible defaults from
// Validate.
type Config struct {
	// Site is this replica's unique ID.
	Site timestamp.SiteID
	// Clock issues timestamps; defaults to timestamp.WallClock(Site).
	Clock timestamp.Clock
	// Rumor selects the rumor-mongering variant for hot updates.
	Rumor core.RumorConfig
	// Resolve selects the anti-entropy conversation parameters.
	Resolve core.ResolveConfig
	// DirectMailOnUpdate mails each locally accepted update to all peers
	// immediately (§1.2). Rumor mongering makes this optional. With it on,
	// a mailed update is not also a rumor: it becomes hot only where mail
	// cannot vouch for its delivery — at the origin when its batch fails,
	// is dropped on overflow or finds no peer, and at a receiver that does
	// not count the sender among its peers (see HandleMailBatch). Mail lost
	// silently is left to anti-entropy.
	DirectMailOnUpdate bool
	// Outbox tunes the outbound mail engine, the one path direct mail and
	// RedistributeMail leave by. Once Start runs, Update/Delete enqueue in
	// O(1) and a worker pool fans out in parallel; before it, each enqueue
	// is drained on the caller's goroutine. The zero value selects the
	// defaults.
	Outbox OutboxConfig
	// Redistribution is the action taken when anti-entropy repairs a
	// missing update at either party (§1.5).
	Redistribution core.Redistribution
	// Tau1 and Tau2 are the death-certificate thresholds of §2.1, in clock
	// units. RetentionCount is r, the number of dormant-copy sites.
	Tau1, Tau2     int64
	RetentionCount int
	// AntiEntropyEvery and RumorEvery are the background daemon periods;
	// zero disables the corresponding daemon (Step* methods still work,
	// which is how the simulator and tests drive nodes deterministically).
	AntiEntropyEvery, RumorEvery time.Duration
	// SnapshotPath, when set, makes the replica durable: New merges the
	// snapshot at that path (if any), Stop writes a final one, and
	// SnapshotEvery (if non-zero) saves periodically — the stable storage
	// the paper assumes replicas live on.
	SnapshotPath  string
	SnapshotEvery time.Duration
	// StoreShards is the replica store's lock-stripe count, rounded up to a
	// power of two; 0 selects store.DefaultShards.
	StoreShards int
	// TraceRing, when positive, enables update tracing with a span ring of
	// that capacity: every apply records a hop span and outbound exchanges
	// carry provenance envelopes. Zero (the default) disables tracing
	// entirely — no spans, no envelopes, no allocations.
	TraceRing int
	// Digests, when non-nil, is this node's cluster digest directory: the
	// transport piggybacks its ShareTo(peer) — the digests that peer
	// lacks — on anti-entropy and rumor-offer exchanges and merges what
	// peers send back. Nil (the default)
	// disables the cluster observatory — no directory, no wire bytes.
	Digests *cluster.Directory
	// Seed seeds this node's private RNG; 0 derives one from the site ID.
	Seed int64
	// OnEvent, when set, receives lifecycle events (exchanges, rumor
	// rounds, redistributions, GC, mail failures, update originations and
	// applies). Called synchronously from the step that produced the
	// event, without internal locks held; the callback must be safe for
	// concurrent use when daemons run.
	OnEvent func(Event)
	// Logger, when set, receives structured logs (protocol rounds at
	// Debug, failures at Warn). Nil discards all logging.
	Logger *slog.Logger
}

// Node is one database replica plus its propagation daemons.
type Node struct {
	cfg    Config
	store  *store.Store
	log    *slog.Logger
	tracer *trace.Tracer // nil when tracing is disabled
	outbox *outbox

	// rounds counts protocol rounds (rumor + anti-entropy) for span
	// stamping; atomic because daemons and handlers read it concurrently.
	rounds atomic.Uint64

	mu       sync.Mutex
	rng      *rand.Rand
	hot      *core.HotList
	activity *store.ActivityList // lazily built for §1.5's combined scheme
	peers    []Peer
	peerCum  []float64 // cumulative selection weights; nil = uniform

	started atomic.Bool // Start ran; Stop then waits for done

	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	// onEvent holds the current observer; atomic so SetOnEvent can
	// install instrumentation after New without racing emit.
	onEvent atomic.Pointer[func(Event)]

	stats Stats
}

// Stats counts a node's protocol activity. The JSON field names are the
// machine-readable contract of gossipd's STATSJSON client command.
type Stats struct {
	// UpdatesAccepted counts local client writes (updates and deletes).
	UpdatesAccepted int `json:"updates_accepted"`
	// MailSent and MailFailed count direct-mail postings.
	MailSent   int `json:"mail_sent"`
	MailFailed int `json:"mail_failed"`
	// AntiEntropyRuns and RumorRuns count protocol rounds executed.
	AntiEntropyRuns int `json:"anti_entropy_runs"`
	RumorRuns       int `json:"rumor_runs"`
	// EntriesSent and EntriesReceived aggregate exchange traffic by
	// direction (outbound from this node vs inbound to it); EntriesApplied
	// counts the transfers that changed a replica.
	EntriesSent     int `json:"entries_sent"`
	EntriesReceived int `json:"entries_received"`
	EntriesApplied  int `json:"entries_applied"`
	// RumorsOffered counts the rumor ids this node offered to peers and
	// RumorsWanted how many of them the peer asked for (and got): 1 -
	// wanted/offered is the share of rumor shares that were redundant.
	RumorsOffered int `json:"rumors_offered"`
	RumorsWanted  int `json:"rumors_wanted"`
	// FullCompares counts anti-entropy conversations that fell back to
	// shipping complete databases (§1.3): after a checksum or recent-list
	// miss in process, after a bucket walk spent its peel budget under
	// CompareShardVector, the wire's one conversation.
	FullCompares int `json:"full_compares"`
	// Redistributed counts updates re-hotted or re-mailed after an
	// anti-entropy repair.
	Redistributed int `json:"redistributed"`
	// CertificatesExpired counts death certificates dropped by GC.
	CertificatesExpired int `json:"certificates_expired"`
	// Outbox engine counters: entries enqueued to peer send queues,
	// enqueues absorbed by newest-stamp-wins coalescing, entries dropped
	// (queue overflow, departed peers, shutdown), batches drained onto the
	// wire, and the current queue depth across all peers.
	OutboxEnqueued  int `json:"outbox_enqueued"`
	OutboxCoalesced int `json:"outbox_coalesced"`
	OutboxDropped   int `json:"outbox_dropped"`
	OutboxBatches   int `json:"outbox_batches"`
	OutboxDepth     int `json:"outbox_depth"`
	// MailBatchesReceived counts batched mail frames applied by this
	// replica; MailMaxQueuedNanos is the largest sender-side queueing
	// delay reported by any of them (codec v5 telemetry).
	MailBatchesReceived int   `json:"mail_batches_received"`
	MailMaxQueuedNanos  int64 `json:"mail_max_queued_nanos"`
}

// New builds a stopped node; call Start to launch its daemons, or drive it
// with StepAntiEntropy/StepRumor.
func New(cfg Config) (*Node, error) {
	if cfg.Clock == nil {
		cfg.Clock = timestamp.WallClock(cfg.Site)
	}
	if cfg.Rumor.K == 0 {
		cfg.Rumor = core.DefaultRumorConfig()
	}
	if err := cfg.Rumor.Validate(); err != nil {
		return nil, fmt.Errorf("node: rumor config: %w", err)
	}
	if cfg.Resolve.Mode == 0 {
		cfg.Resolve = core.ResolveConfig{Mode: core.PushPull, Strategy: ComparePeelBackDefault, ReactivateDormant: true}
	}
	if err := cfg.Resolve.Validate(); err != nil {
		return nil, fmt.Errorf("node: resolve config: %w", err)
	}
	if cfg.Redistribution == 0 {
		cfg.Redistribution = core.RedistributeRumor
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(cfg.Site)*2654435761 + 1
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Node{
		cfg:   cfg,
		store: store.NewSharded(cfg.Site, cfg.Clock, cfg.StoreShards),
		log:   logger.With("site", int(cfg.Site)),
		rng:   rng,
		hot:   core.NewHotList(cfg.Rumor, rng),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if cfg.TraceRing > 0 {
		n.tracer = trace.NewTracer(cfg.Site, cfg.TraceRing)
	}
	n.outbox = newOutbox(cfg.Outbox.withDefaults(), n)
	if cfg.OnEvent != nil {
		n.onEvent.Store(&cfg.OnEvent)
	}
	if cfg.SnapshotPath != "" {
		if _, err := n.store.LoadFile(cfg.SnapshotPath); err != nil {
			return nil, fmt.Errorf("node: load snapshot: %w", err)
		}
	}
	return n, nil
}

// SetOnEvent replaces the event observer (see Config.OnEvent); nil
// removes it. Safe to call concurrently with running daemons — typical use
// is installing observability instrumentation right after New, which needs
// the constructed node to close over.
func (n *Node) SetOnEvent(fn func(Event)) {
	if fn == nil {
		n.onEvent.Store(nil)
		return
	}
	n.onEvent.Store(&fn)
}

// SaveSnapshot writes the replica to the configured snapshot path (or the
// given path if the config has none).
func (n *Node) SaveSnapshot(path string) error {
	if path == "" {
		path = n.cfg.SnapshotPath
	}
	if path == "" {
		return errors.New("node: no snapshot path configured")
	}
	return n.store.SaveFile(path)
}

// ComparePeelBackDefault is the default anti-entropy comparison strategy:
// peel-back, which §1.5 shows composes best with rumor mongering.
const ComparePeelBackDefault = core.ComparePeelBack

// Site returns this node's site ID.
func (n *Node) Site() timestamp.SiteID { return n.cfg.Site }

// Store exposes the replica (read-mostly; the store is thread-safe).
func (n *Node) Store() *store.Store { return n.store }

// Tracer returns this node's span tracer, or nil when tracing is
// disabled (Config.TraceRing <= 0). The nil tracer is safe to use.
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// Digests returns this node's cluster digest directory, or nil when the
// observatory is disabled (Config.Digests unset). The nil directory is
// safe to use — every method no-ops.
func (n *Node) Digests() *cluster.Directory { return n.cfg.Digests }

// SetPeers replaces the peer set with uniform selection probability. The
// slice is copied.
func (n *Node) SetPeers(peers []Peer) {
	n.mu.Lock()
	n.peers = make([]Peer, len(peers))
	copy(n.peers, peers)
	n.peerCum = nil
	n.mu.Unlock()
	n.outbox.setPeers(peers)
}

// SetPeersWeighted replaces the peer set with the given relative selection
// weights — how spatial distributions (§3) are deployed on a real node:
// compute per-peer weights from the network distances (e.g. with
// spatial.Probabilities) and pass them here. Weights must be positive and
// len(weights) must equal len(peers).
func (n *Node) SetPeersWeighted(peers []Peer, weights []float64) error {
	if len(peers) != len(weights) {
		return fmt.Errorf("node: %d peers but %d weights", len(peers), len(weights))
	}
	cum := make([]float64, len(weights))
	run := 0.0
	for i, w := range weights {
		if w <= 0 {
			return fmt.Errorf("node: weight %d is %v, must be positive", i, w)
		}
		run += w
		cum[i] = run
	}
	n.mu.Lock()
	n.peers = make([]Peer, len(peers))
	copy(n.peers, peers)
	n.peerCum = cum
	n.mu.Unlock()
	n.outbox.setPeers(peers)
	return nil
}

// Peers returns a copy of the peer set.
func (n *Node) Peers() []Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Peer, len(n.peers))
	copy(out, n.peers)
	return out
}

// Stats returns a copy of the activity counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	s := n.stats
	n.mu.Unlock()
	ox := n.outbox
	s.OutboxEnqueued = int(ox.enqueued.Load())
	s.OutboxCoalesced = int(ox.coalesced.Load())
	s.OutboxDropped = int(ox.dropped.Load())
	s.OutboxBatches = int(ox.batches.Load())
	s.OutboxDepth = ox.depth()
	return s
}

// Update accepts a client write at this site and starts distributing it.
func (n *Node) Update(key string, value store.Value) store.Entry {
	e := n.store.Update(key, value)
	n.distribute(e)
	return e
}

// Delete accepts a client delete: it writes a death certificate whose
// retention sites are chosen uniformly from the current peer set plus this
// site (§2.1), then distributes it like any update.
func (n *Node) Delete(key string) store.Entry {
	n.mu.Lock()
	sites := make([]timestamp.SiteID, 0, len(n.peers)+1)
	sites = append(sites, n.cfg.Site)
	for _, p := range n.peers {
		sites = append(sites, p.ID())
	}
	retention := core.ChooseRetention(n.rng, sites, n.cfg.RetentionCount)
	n.mu.Unlock()

	e := n.store.Delete(key, retention)
	n.distribute(e)
	return e
}

// Lookup reads the current value at this replica.
func (n *Node) Lookup(key string) (store.Value, bool) { return n.store.Lookup(key) }

// distribute starts spreading a fresh local entry: without direct mail it
// becomes a hot rumor (§1.4); with it, it is mailed through the outbox
// (§1.2's queued mail — on a started node an O(1) enqueue per peer, so the
// caller never waits on the network) and is not hot here. The outbox
// re-hots it if its mail cannot be vouched for: the batch failed, it was
// dropped on overflow, or the node has no peer to mail.
func (n *Node) distribute(e store.Entry) {
	mail := n.cfg.DirectMailOnUpdate
	n.mu.Lock()
	n.stats.UpdatesAccepted++
	if !mail {
		n.hot.Add(e.Key, e.Stamp)
	}
	if n.activity != nil {
		n.activity.Touch(e.Key)
	}
	n.mu.Unlock()
	n.tracer.RecordLocal(e.Key, e.Stamp, n.rounds.Load())
	n.emit(Event{Kind: EventUpdate, Key: e.Key, Stamp: e.Stamp})

	if mail {
		n.outbox.enqueue(e, n.tracer.Envelope(e.Key, e.Stamp))
	}
}

// noteMailResult records the outcome of one outbox drain of entries to
// peer: sent/failed counters plus, for a failed batch, one EventMailFailed
// whose Count carries the entries lost with it. A failed batch's entries
// become hot rumors here: rumor mongering carries what mail could not.
// Called without any locks held.
func (n *Node) noteMailResult(peer timestamp.SiteID, entries []store.Entry, err error) {
	n.mu.Lock()
	if err != nil {
		n.stats.MailFailed += len(entries)
	} else {
		n.stats.MailSent += len(entries)
	}
	n.mu.Unlock()
	if err != nil {
		n.rehot(entries)
		n.log.Warn("direct mail batch failed", "peer", int(peer), "entries", len(entries), "err", err)
		n.emit(Event{Kind: EventMailFailed, Peer: peer, Count: len(entries)})
	}
}

// rehot makes entries whose mail could not be vouched for hot rumors at
// this site. Called without any locks held.
func (n *Node) rehot(entries []store.Entry) {
	if len(entries) == 0 {
		return
	}
	n.mu.Lock()
	for _, e := range entries {
		n.hot.Add(e.Key, e.Stamp)
	}
	n.mu.Unlock()
}

// FlushMail blocks until the outbound mail engine has drained every queue
// and finished every in-flight send, or timeout elapses (<= 0 selects the
// configured FlushTimeout). It reports whether the drain completed. On an
// unstarted node every enqueue was drained by its caller, so there is
// nothing to wait for.
func (n *Node) FlushMail(timeout time.Duration) bool {
	return n.outbox.flush(timeout)
}

// HandleMailBatch is the receive side of PostMail: every entry is applied,
// and the whole batch shares one lock acquisition for the hot-list and
// activity bookkeeping. A fresh update becomes a hot rumor here only when
// b.From is not one of this node's peers: the sender's view of the site set
// is then not this node's (§1.2's source "does not have accurate knowledge
// of S"), so mail alone may not have reached everyone. Mail from a known
// peer went to every site that peer knows, so rumoring it again would be
// redundant. Hops carries the senders' provenance envelopes (nil when the
// sender does not trace). needed[i] reports whether entry i changed this
// replica. The batch's sender-side telemetry feeds the mail stats.
func (n *Node) HandleMailBatch(b MailBatch) []bool {
	n.mu.Lock()
	known := false
	for _, p := range n.peers {
		if p.ID() == b.From {
			known = true
			break
		}
	}
	n.stats.MailBatchesReceived++
	if b.QueuedNanos > n.stats.MailMaxQueuedNanos {
		n.stats.MailMaxQueuedNanos = b.QueuedNanos
	}
	n.mu.Unlock()
	return n.applyRumors(b.Entries, b.Hops, trace.MechDirectMail, !known)
}

// HandleRumors is the receive side of PushRumors: apply each entry, report
// which were needed, and treat fresh ones as hot rumors here too ("the
// recipient ... adds all new updates to its infective list", §1.4). hops
// carries one envelope per entry or nil.
func (n *Node) HandleRumors(entries []store.Entry, hops []trace.Hop) []bool {
	return n.applyRumors(entries, hops, trace.MechRumorPush, true)
}

// appliedRumor defers span and event emission until n.mu is released. It
// carries only what those emissions need — copying whole entries (values,
// retention lists) into the deferral list showed up as the dominant cost
// of a 64-entry batch in profiles.
type appliedRumor struct {
	key   string
	stamp timestamp.T
	hop   trace.Hop
	at    int64
}

// applyRumors applies entries arriving by mech, making the fresh ones hot
// rumors when hot is set.
func (n *Node) applyRumors(entries []store.Entry, hops []trace.Hop, mech trace.Mechanism, hot bool) []bool {
	needed := make([]bool, len(entries))
	// Typical batches fit the stack buffer; only oversized pushes pay a
	// heap allocation for the deferral list.
	var buf [64]appliedRumor
	applied := buf[:0]
	if len(entries) > len(buf) {
		applied = make([]appliedRumor, 0, len(entries))
	}
	for i, e := range entries {
		res := n.store.Apply(e)
		needed[i] = res.Changed()
		if res.Changed() {
			applied = append(applied, appliedRumor{key: e.Key, stamp: e.Stamp, hop: hopAt(hops, i), at: n.store.Now()})
		}
	}
	if len(applied) > 0 {
		// One lock acquisition for the whole batch: a 64-entry push used to
		// take and release n.mu 64 times here, serializing against every
		// concurrent Update and Stats call.
		n.mu.Lock()
		for i := range applied {
			if hot {
				n.hot.Add(applied[i].key, applied[i].stamp)
			}
			if n.activity != nil {
				n.activity.Touch(applied[i].key)
			}
		}
		n.mu.Unlock()
	}
	round := n.rounds.Load()
	for i := range applied {
		a := &applied[i]
		n.tracer.RecordApply(a.key, a.stamp, a.hop.Sender(), a.hop, mech, a.at, round)
		n.emit(Event{Kind: EventApply, Key: a.key, Stamp: a.stamp})
	}
	return needed
}

// hopAt returns hops[i], or the zero (no-envelope) Hop when the slice is
// nil or short — untraced senders simply omit the envelopes.
func hopAt(hops []trace.Hop, i int) trace.Hop {
	if i < len(hops) {
		return hops[i]
	}
	return trace.Hop{}
}

// ApplyRepair applies one entry received through a remotely initiated
// anti-entropy conversation (the transport server's repair requests),
// emitting EventApply when it changes this replica. from identifies the
// initiating site, hop its provenance envelope for the entry, and mech the
// anti-entropy sub-mechanism (MechAntiEntropy or MechPeelBack). Unlike
// mail the entry does not become a hot rumor: redistribution of
// repaired updates is the initiator's policy decision (§1.5).
func (n *Node) ApplyRepair(e store.Entry, from timestamp.SiteID, hop trace.Hop, mech trace.Mechanism) store.ApplyResult {
	res := n.store.Apply(e)
	if res.Changed() {
		src := from
		if hop.Valid {
			src = hop.Parent
		}
		n.tracer.RecordApply(e.Key, e.Stamp, src, hop, mech, n.store.Now(), n.rounds.Load())
		n.emit(Event{Kind: EventApply, Key: e.Key, Stamp: e.Stamp, Peer: src})
	}
	return res
}

// ApplyRepairs applies the entries of one remotely initiated anti-entropy
// request through ApplyRepair. needed[i] reports whether entry i changed
// this replica. When the node's Resolve config reactivates dormant
// certificates, an obsolete entry that one of them rejects wakes it (§2.2,
// core.ReactivateIfDormant at threshold tau1); awakened lists those
// certificates for the response to carry back to the initiator.
func (n *Node) ApplyRepairs(entries []store.Entry, hops []trace.Hop, from timestamp.SiteID, mech trace.Mechanism, tau1 int64) (needed []bool, awakened []store.Entry) {
	if len(entries) == 0 {
		return nil, nil
	}
	needed = make([]bool, len(entries))
	for i, e := range entries {
		res := n.ApplyRepair(e, from, hopAt(hops, i), mech)
		needed[i] = res.Changed()
		if res == store.RejectedByDeath && n.cfg.Resolve.ReactivateDormant {
			if re, ok := core.ReactivateIfDormant(n.store, e.Key, tau1); ok {
				awakened = append(awakened, re)
			}
		}
	}
	return needed, awakened
}

// noteRepaired records spans and emits EventApply for the repairs an
// anti-entropy exchange landed on THIS replica, attributed to each
// repair's Parent; repairs of other sites are skipped. It serves both
// ends: the initiator after any conversation (StepAntiEntropy), and the
// responder of an in-process LocalPeer conversation, where
// core.ResolveDifference writes into both stores directly. Must be called
// without n.mu held.
func (n *Node) noteRepaired(repairs []core.Repair) {
	round := n.rounds.Load()
	for _, r := range repairs {
		if r.Site != n.cfg.Site {
			continue
		}
		hop := trace.Hop{Parent: r.Parent, Count: r.SenderHop, Valid: true}
		n.tracer.RecordApply(r.Key, r.Stamp, r.Parent, hop, r.Mech, n.store.Now(), round)
		n.emit(Event{Kind: EventApply, Key: r.Key, Stamp: r.Stamp, Peer: r.Parent})
	}
}

// hotIDs returns the identities (store.ID: no values) of every hot rumor
// in key order, in one pass under n.mu. A rumor whose entry was superseded
// or expired while hot is dropped from the list here: the stale version
// must stop spreading.
func (n *Node) hotIDs() []store.Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	keys := n.hot.Keys()
	ids := make([]store.Entry, 0, len(keys))
	for _, k := range keys {
		hot, _ := n.hot.Stamp(k)
		id, ok := n.store.ID(k)
		if !ok || hot.Less(id.Stamp) {
			n.hot.Remove(k)
			continue
		}
		ids = append(ids, id)
	}
	return ids
}

// fetch reads the full entries the ids name, leaving out keys marked in
// skip.
func (n *Node) fetch(ids []store.Entry, skip map[string]bool) []store.Entry {
	var out []store.Entry
	for _, id := range ids {
		if skip[id.Key] {
			continue
		}
		if e, ok := n.store.Get(id.Key); ok {
			out = append(out, e)
		}
	}
	return out
}

// HotEntries returns the node's current hot rumors as entries (the
// infective list), for inspection; the rumor round itself moves ids and
// reads values only for what a peer wants.
func (n *Node) HotEntries() []store.Entry { return n.fetch(n.hotIDs(), nil) }

// HandleOffer is the receive side of OfferRumors: answerOffer against this
// node's own hot rumors.
func (n *Node) HandleOffer(ids []store.Entry) (want []bool, entries []store.Entry, hops []trace.Hop) {
	return n.answerOffer(ids, n.hotIDs())
}

// answerOffer judges an offer of ids against this replica. want[i] is
// exactly what store.Apply of id i's entry would report as Changed(). The
// reply carries, in full, the entries named by mine (this node's own ids on
// offer) except those the offer covers — the offerer holds an equal or newer
// version. The cover check is O(offer + mine): one set over mine, which
// costs nothing while it is empty (a quiet replica answering a 100 000-id
// offer from one that just caught up).
func (n *Node) answerOffer(ids, mine []store.Entry) (want []bool, entries []store.Entry, hops []trace.Hop) {
	var covered map[string]bool // keys in mine, true once the offer covers my copy
	if len(ids) > 0 && len(mine) > 0 {
		covered = make(map[string]bool, len(mine))
		for _, m := range mine {
			covered[m.Key] = false
		}
	}
	want = make([]bool, len(ids))
	for i, id := range ids {
		var cov bool
		want[i], cov = n.store.Wants(id)
		if _, ok := covered[id.Key]; ok && cov {
			covered[id.Key] = true
		}
	}
	entries = n.fetch(mine, covered)
	return want, entries, n.tracer.Envelopes(entries)
}

// pickPeer chooses a random peer, uniformly or by the weights installed
// with SetPeersWeighted.
func (n *Node) pickPeer() (Peer, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.peers) == 0 {
		return nil, false
	}
	if n.peerCum == nil {
		return n.peers[n.rng.Intn(len(n.peers))], true
	}
	total := n.peerCum[len(n.peerCum)-1]
	x := n.rng.Float64() * total
	i := sort.SearchFloat64s(n.peerCum, x)
	if i == len(n.peerCum) {
		i--
	}
	return n.peers[i], true
}

// ErrNoPeers is returned by Step methods when the node has no peers.
var ErrNoPeers = errors.New("node: no peers configured")

// StepRumor runs one rumor-mongering round with one random peer as an
// offer-first conversation: the ids of every hot rumor go out; the reply
// says which of them the peer wants and carries the peer's own hot
// rumors. Only wanted entries are then read from the store and pushed, so
// a round in which nothing is news costs one round trip and no payload.
// Push mode ignores the returned entries, Pull mode the want-bits.
func (n *Node) StepRumor() error {
	peer, ok := n.pickPeer()
	if !ok {
		return ErrNoPeers
	}
	n.rounds.Add(1)
	n.mu.Lock()
	n.stats.RumorRuns++
	n.mu.Unlock()
	began := time.Now()

	mode := n.cfg.Rumor.Mode
	ids := n.hotIDs()
	want, entries, hops, err := peer.OfferRumors(ids)
	if err != nil {
		return fmt.Errorf("offer rumors to %d: %w", peer.ID(), err)
	}
	if mode != core.Pull && len(ids) > 0 {
		// A want-bit the reply lacks counts as set: a peer that answers the
		// offer as a plain pull still gets every entry, as it used to.
		var push []store.Entry
		var slot []int // push[j] answers ids[slot[j]]
		for i, id := range ids {
			if i < len(want) && !want[i] {
				continue
			}
			if e, ok := n.store.Get(id.Key); ok {
				push, slot = append(push, e), append(slot, i)
			}
		}
		// Feedback is what the push changed, not what the offer promised:
		// an entry someone else delivered in between was an unnecessary
		// share after all.
		needed := make([]bool, len(ids))
		if len(push) > 0 {
			got, err := peer.PushRumors(push, n.tracer.Envelopes(push))
			if err != nil {
				return fmt.Errorf("push rumors to %d: %w", peer.ID(), err)
			}
			for j, i := range slot {
				needed[i] = j < len(got) && got[j]
			}
		}
		n.mu.Lock()
		for i, id := range ids {
			n.hot.Feedback(id.Key, needed[i])
		}
		n.stats.RumorsOffered += len(ids)
		n.stats.RumorsWanted += len(push)
		n.stats.EntriesSent += len(push)
		n.mu.Unlock()
	}
	if mode != core.Push {
		n.applyRumors(entries, hops, trace.MechRumorPull, true)
		n.mu.Lock()
		n.stats.EntriesReceived += len(entries)
		n.mu.Unlock()
	}
	n.emit(Event{Kind: EventRumor, Peer: peer.ID(), Duration: time.Since(began)})
	n.log.Debug("rumor round finished", "peer", int(peer.ID()))
	return nil
}

// StepAntiEntropy runs one anti-entropy conversation with a random peer,
// applying the configured redistribution policy to repaired updates.
func (n *Node) StepAntiEntropy() error {
	peer, ok := n.pickPeer()
	if !ok {
		return ErrNoPeers
	}
	n.rounds.Add(1)
	before := n.store.Checksum()
	began := time.Now()
	st, err := peer.AntiEntropy(n.cfg.Resolve, n.store, n.tracer)
	if err != nil {
		return fmt.Errorf("anti-entropy with %d: %w", peer.ID(), err)
	}
	elapsed := time.Since(began)
	n.mu.Lock()
	n.stats.AntiEntropyRuns++
	n.stats.EntriesSent += st.EntriesSent
	n.stats.EntriesReceived += st.EntriesReceived
	n.stats.EntriesApplied += st.EntriesApplied
	if st.FullCompare {
		n.stats.FullCompares++
	}
	n.mu.Unlock()
	// Infections repaired INTO this replica during the conversation: their
	// Parent is peer, on both peer kinds.
	n.noteRepaired(st.Repairs)
	n.emit(Event{Kind: EventAntiEntropy, Peer: peer.ID(), Stats: st, Duration: elapsed})
	n.log.Debug("anti-entropy finished", "peer", int(peer.ID()),
		"sent", st.EntriesSent, "received", st.EntriesReceived,
		"applied", st.EntriesApplied, "full_compare", st.FullCompare)

	if n.cfg.Redistribution == core.RedistributeNone {
		return nil
	}
	if n.store.Checksum() == before && st.EntriesApplied == 0 {
		return nil // nothing was repaired
	}
	n.redistributeRepaired(st)
	return nil
}

// redistributeRepaired applies §1.5's redistribution policy: an update the
// exchange moved becomes a hot rumor again (or is re-mailed). Bookkeeping
// happens under n.mu but mail never leaves under it: RedistributeMail
// entries are collected under the lock and enqueued to the outbox after it
// is released, so a slow peer cannot wedge every Stats/Update/pickPeer
// caller behind a redistribution in progress.
func (n *Node) redistributeRepaired(st core.ExchangeStats) {
	keys := st.RepairedKeys()
	if len(keys) == 0 {
		return
	}
	type mailing struct {
		entry store.Entry
		env   trace.Hop
	}
	var outgoing []mailing
	// After the exchange both replicas hold every repaired entry, so this
	// node can redistribute all of them regardless of direction.
	n.mu.Lock()
	var done []string
	for _, key := range keys {
		e, ok := n.store.Get(key)
		if !ok {
			continue
		}
		switch n.cfg.Redistribution {
		case core.RedistributeRumor:
			n.hot.Add(key, e.Stamp)
		case core.RedistributeMail:
			outgoing = append(outgoing, mailing{entry: e, env: n.tracer.Envelope(key, e.Stamp)})
		}
		n.stats.Redistributed++
		done = append(done, key)
	}
	n.mu.Unlock()
	for _, m := range outgoing {
		n.outbox.enqueue(m.entry, m.env)
	}
	if len(done) > 0 {
		n.emit(Event{Kind: EventRedistribute, Keys: done, Count: len(done)})
	}
}

// StepGC expires death certificates per §2.1 and prunes hot-list entries
// whose certificates vanished.
func (n *Node) StepGC() int {
	dropped := n.store.ExpireDeathCertificates(n.store.Now(), n.cfg.Tau1, n.cfg.Tau2)
	if dropped > 0 {
		n.mu.Lock()
		n.stats.CertificatesExpired += dropped
		n.mu.Unlock()
		n.emit(Event{Kind: EventGC, Count: dropped})
		n.log.Debug("death certificates expired", "dropped", dropped)
	}
	return dropped
}

// Start launches the outbox's mail workers and the background daemons
// configured with non-zero periods. Until it runs, mail is drained on the
// goroutine that enqueued it.
func (n *Node) Start() {
	n.started.Store(true)
	n.outbox.start()
	if n.cfg.AntiEntropyEvery > 0 {
		n.wg.Add(1)
		go n.loop(n.cfg.AntiEntropyEvery, func() {
			if err := n.StepAntiEntropy(); err != nil && !errors.Is(err, ErrNoPeers) {
				n.log.Warn("anti-entropy round failed", "err", err)
			}
			n.StepGC()
		})
	}
	if n.cfg.RumorEvery > 0 {
		n.wg.Add(1)
		go n.loop(n.cfg.RumorEvery, func() {
			if err := n.StepRumor(); err != nil && !errors.Is(err, ErrNoPeers) {
				n.log.Warn("rumor round failed", "err", err)
			}
		})
	}
	if n.cfg.SnapshotPath != "" && n.cfg.SnapshotEvery > 0 {
		n.wg.Add(1)
		go n.loop(n.cfg.SnapshotEvery, func() {
			if err := n.SaveSnapshot(""); err != nil {
				n.log.Warn("periodic snapshot failed", "err", err)
			}
		})
	}
	go func() {
		n.wg.Wait()
		close(n.done)
	}()
}

func (n *Node) loop(every time.Duration, step func()) {
	defer n.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			step()
		case <-n.stop:
			return
		}
	}
}

// Stop terminates the daemons, waits for them to exit, drains the outbox
// and writes a final snapshot. It may be called on a node that was never
// started; it must be called at most once.
func (n *Node) Stop() {
	close(n.stop)
	if n.started.Load() {
		<-n.done
	}
	// Graceful flush: drain queued mail within the configured budget, then
	// drop what a backed-off peer still holds and stop the workers.
	n.outbox.stop()
	if n.cfg.SnapshotPath != "" {
		_ = n.SaveSnapshot("") // best-effort final snapshot
	}
}
