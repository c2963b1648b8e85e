package node

import (
	"sync"
	"sync/atomic"
	"time"

	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// The outbound gossip engine. The paper's direct mail (§1.2) is a queued,
// nearly-reliable message — "the originating site sends the update to all
// other sites", with mail understood to be queued and possibly delayed —
// and the outbox is the only way mail leaves a node. Every peer has a
// bounded send queue with newest-stamp-wins coalescing per key; each drain
// ships as one MailBatch. A started node drains from a small worker pool
// that fans out to all peers in parallel, so Update/Delete never block on
// N network round trips; a failing peer backs off exponentially and its
// queue drops oldest on overflow, the paper's "messages may be discarded
// when queues overflow" made literal. Mail the engine cannot vouch for —
// a failed batch, an overflow drop, an entry with no peer to go to — is
// handed back to the node as hot rumors, so rumor mongering carries it;
// entries dropped because their peer departed or the node shut down are
// not. An unstarted node (the simulator, Step-driven tests) has no
// workers: the caller drains every queue it filled, in SetPeers order,
// before its enqueue returns, so simulated cycles stay deterministic and
// mail is delivered at Update time.

// OutboxConfig tunes the outbound mail engine. Zero values select the
// defaults noted per field.
type OutboxConfig struct {
	// Workers bounds the goroutines that drain peer queues once the node
	// is started (default 8).
	Workers int
	// QueuePerPeer bounds the coalesced entries queued per peer (default
	// 256). On overflow the oldest queued entry is dropped.
	QueuePerPeer int
	// RetryBackoff is the delay before a peer whose send failed is drained
	// again (default 50ms), doubling per consecutive failure up to
	// MaxBackoff (default 5s). While backed off a peer consumes no worker.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// FlushTimeout bounds the graceful drain on Stop (default 2s); queues
	// still pending when it expires (a down peer mid-backoff) are dropped.
	FlushTimeout time.Duration
}

// Defaults for OutboxConfig zero values.
const (
	defaultOutboxWorkers = 8
	defaultOutboxQueue   = 256
	defaultRetryBackoff  = 50 * time.Millisecond
	defaultMaxBackoff    = 5 * time.Second
	defaultFlushTimeout  = 2 * time.Second
)

func (c OutboxConfig) withDefaults() OutboxConfig {
	if c.Workers <= 0 {
		c.Workers = defaultOutboxWorkers
	}
	if c.QueuePerPeer <= 0 {
		c.QueuePerPeer = defaultOutboxQueue
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = defaultRetryBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = defaultMaxBackoff
	}
	if c.FlushTimeout <= 0 {
		c.FlushTimeout = defaultFlushTimeout
	}
	return c
}

// MailBatch is one coalesced drain of a peer's send queue: the entries
// (one per key, newest version wins) with their provenance envelopes, plus
// the engine telemetry the wire's mail-batch section carries to the
// receiver.
type MailBatch struct {
	// From is the sending site, stamped by the outbox when the batch
	// drains. A receiver that does not count From among its peers cannot
	// vouch that mail reached everyone and hot-lists the entries
	// (Node.HandleMailBatch).
	From    timestamp.SiteID
	Entries []store.Entry
	// Hops carries one provenance envelope per entry, or nil when the
	// sender does not trace.
	Hops []trace.Hop
	// QueuedNanos is the age of the batch's oldest entry at drain time.
	QueuedNanos int64
	// Coalesced counts the supersessions absorbed while the entries
	// queued: enqueues that replaced (or lost to) an already-queued
	// version of the same key instead of crossing the wire twice.
	Coalesced int
}

// outEntry is one queued mail: the entry, its envelope, and when it was
// first enqueued (survives coalescing, so QueuedNanos reports true age).
type outEntry struct {
	entry store.Entry
	hop   trace.Hop
	enq   time.Time
}

// peerQueue is one peer's bounded coalescing send queue. All fields are
// guarded by the owning outbox's mutex, peer included: a membership change
// keeps the queue of a surviving site and swaps its peer object.
type peerQueue struct {
	peer  Peer
	keys  []string // FIFO key order; a coalesced key keeps its position
	byKey map[string]outEntry

	coalesced int  // supersessions since the last drain
	scheduled bool // on the run queue, or being drained by a worker
	retired   bool // its site left the peer set; never scheduled again

	backoff      time.Duration // current failure backoff (0 = healthy)
	backoffUntil time.Time
	timerArmed   bool // a wake-up timer for backoffUntil is outstanding
}

func newPeerQueue(p Peer) *peerQueue {
	return &peerQueue{peer: p, byKey: make(map[string]outEntry)}
}

// outbox is the engine: per-peer queues, a run queue of peers with work,
// and — once started — the worker pool that drains them.
type outbox struct {
	cfg  OutboxConfig
	node *Node

	// Monotonic counters, readable without the mutex (Stats, metrics).
	enqueued  atomic.Int64
	coalesced atomic.Int64
	dropped   atomic.Int64
	batches   atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond   // broadcast on run-queue growth and drain progress
	queues   []*peerQueue // one per peer, in SetPeers order
	runq     []*peerQueue // queues awaiting a worker (started engines only)
	pending  int          // entries queued across all peers
	inflight int          // batches currently mid-send
	started  bool         // workers drain; otherwise each enqueue drains itself
	stopped  bool
	wg       sync.WaitGroup
}

func newOutbox(cfg OutboxConfig, n *Node) *outbox {
	ox := &outbox{cfg: cfg, node: n}
	ox.cond = sync.NewCond(&ox.mu)
	return ox
}

// setPeers rebuilds the queue set for a new peer list. Queues of surviving
// sites keep their pending mail (the peer object may have been replaced by
// a membership sync; mail follows the site, not the connection); queues of
// departed sites are retired and emptied, their entries counted as dropped.
func (ox *outbox) setPeers(peers []Peer) {
	ox.mu.Lock()
	defer ox.mu.Unlock()
	old := make(map[timestamp.SiteID]*peerQueue, len(ox.queues))
	for _, q := range ox.queues {
		old[q.peer.ID()] = q
	}
	next := make([]*peerQueue, 0, len(peers))
	for _, p := range peers {
		q, ok := old[p.ID()]
		if ok {
			q.peer = p
			delete(old, p.ID())
		} else {
			q = newPeerQueue(p)
		}
		next = append(next, q)
	}
	for _, q := range old { // departed sites
		q.retired = true
		ox.pending -= len(q.keys)
		ox.dropped.Add(int64(len(q.keys)))
		q.keys, q.byKey = nil, make(map[string]outEntry)
	}
	ox.queues = next
	ox.cond.Broadcast() // pending may have reached zero for Flush waiters
}

// enqueue queues one entry to every peer, coalescing per key: a version
// already queued for a peer is replaced in place when e is newer (and
// keeps its queue position), absorbed when older. On a started engine that
// is O(peers) map work and no network — the whole cost Update/Delete pay
// for distribution. On an unstarted one the caller then drains every
// queue itself, in SetPeers order. An entry that reaches no queue (the
// node has no peers) and every entry dropped on overflow is re-hotted at
// the node once ox.mu is released.
func (ox *outbox) enqueue(e store.Entry, hop trace.Hop) {
	ox.mu.Lock()
	if ox.stopped {
		ox.mu.Unlock()
		return
	}
	var lost []store.Entry
	if len(ox.queues) == 0 {
		lost = append(lost, e)
	}
	now := time.Now()
	for _, q := range ox.queues {
		if old, ok := q.byKey[e.Key]; ok {
			if old.entry.Stamp.Less(e.Stamp) {
				q.byKey[e.Key] = outEntry{entry: e, hop: hop, enq: old.enq}
			}
			q.coalesced++
			ox.coalesced.Add(1)
			continue
		}
		if len(q.keys) >= ox.cfg.QueuePerPeer {
			oldest := q.keys[0]
			lost = append(lost, q.byKey[oldest].entry)
			q.keys = q.keys[1:]
			delete(q.byKey, oldest)
			ox.pending--
			ox.dropped.Add(1)
		}
		q.keys = append(q.keys, e.Key)
		q.byKey[e.Key] = outEntry{entry: e, hop: hop, enq: now}
		ox.pending++
		ox.enqueued.Add(1)
		if ox.started {
			ox.scheduleLocked(q, now)
		}
	}
	if !ox.started {
		for _, q := range ox.queues {
			ox.sendLocked(q)
		}
	}
	ox.mu.Unlock()
	ox.node.rehot(lost)
}

// scheduleLocked puts q on the run queue unless it is already there (or
// mid-drain), or is backing off — in which case a wake-up timer re-checks
// when the backoff expires.
func (ox *outbox) scheduleLocked(q *peerQueue, now time.Time) {
	if q.scheduled {
		return
	}
	if now.Before(q.backoffUntil) {
		if !q.timerArmed {
			q.timerArmed = true
			time.AfterFunc(q.backoffUntil.Sub(now), func() { ox.backoffExpired(q) })
		}
		return
	}
	q.scheduled = true
	ox.runq = append(ox.runq, q)
	ox.cond.Broadcast()
}

func (ox *outbox) backoffExpired(q *peerQueue) {
	ox.mu.Lock()
	q.timerArmed = false
	if !ox.stopped && !q.retired && len(q.keys) > 0 {
		ox.scheduleLocked(q, time.Now())
	}
	ox.mu.Unlock()
}

// start launches the worker pool (Node.Start); from then on enqueues only
// schedule, and whatever is still queued is scheduled now.
func (ox *outbox) start() {
	ox.mu.Lock()
	defer ox.mu.Unlock()
	if ox.started || ox.stopped {
		return
	}
	ox.started = true
	for i := 0; i < ox.cfg.Workers; i++ {
		ox.wg.Add(1)
		go ox.worker()
	}
	now := time.Now()
	for _, q := range ox.queues {
		if len(q.keys) > 0 {
			ox.scheduleLocked(q, now)
		}
	}
}

// drainLocked empties q into one MailBatch. Hops are materialised only
// when at least one envelope is valid, so untraced batches ship nil.
func (q *peerQueue) drainLocked(now time.Time) MailBatch {
	b := MailBatch{Coalesced: q.coalesced}
	q.coalesced = 0
	if len(q.keys) == 0 {
		return b
	}
	b.Entries = make([]store.Entry, 0, len(q.keys))
	hops := make([]trace.Hop, 0, len(q.keys))
	anyHop := false
	oldest := now
	for _, k := range q.keys {
		oe := q.byKey[k]
		b.Entries = append(b.Entries, oe.entry)
		hops = append(hops, oe.hop)
		if oe.hop.Valid {
			anyHop = true
		}
		if oe.enq.Before(oldest) {
			oldest = oe.enq
		}
		delete(q.byKey, k)
	}
	q.keys = q.keys[:0]
	if anyHop {
		b.Hops = hops
	}
	b.QueuedNanos = now.Sub(oldest).Nanoseconds()
	return b
}

// sendLocked drains q into one MailBatch stamped with the node's site and
// posts it to q's peer, releasing ox.mu for the round trip. It reports
// whether there was anything to send, and the send's error. A failed batch
// is dropped, every entry counted as failed and re-hotted: mail is lossy
// (§1.2) and rumor mongering, backed by anti-entropy, carries it instead.
func (ox *outbox) sendLocked(q *peerQueue) (sent bool, err error) {
	batch := q.drainLocked(time.Now())
	if len(batch.Entries) == 0 {
		return false, nil
	}
	batch.From = ox.node.cfg.Site
	ox.pending -= len(batch.Entries)
	ox.inflight++
	peer := q.peer // setPeers may swap q.peer once the lock is released
	ox.mu.Unlock()

	err = peer.MailBatch(batch)
	ox.batches.Add(1)
	ox.node.noteMailResult(peer.ID(), batch.Entries, err)

	ox.mu.Lock()
	ox.inflight--
	ox.cond.Broadcast() // progress for Flush waiters
	return true, err
}

func (ox *outbox) worker() {
	defer ox.wg.Done()
	ox.mu.Lock()
	for {
		for len(ox.runq) == 0 && !ox.stopped {
			ox.cond.Wait()
		}
		if len(ox.runq) == 0 { // stopped and drained
			ox.mu.Unlock()
			return
		}
		q := ox.runq[0]
		ox.runq = ox.runq[1:]
		sent, err := ox.sendLocked(q)
		q.scheduled = false
		if !sent {
			continue
		}
		if err != nil {
			if q.backoff == 0 {
				q.backoff = ox.cfg.RetryBackoff
			} else if q.backoff *= 2; q.backoff > ox.cfg.MaxBackoff {
				q.backoff = ox.cfg.MaxBackoff
			}
			q.backoffUntil = time.Now().Add(q.backoff)
		} else {
			q.backoff = 0
		}
		// More arrived mid-send: back on the run queue, or onto a backoff
		// timer after a failure. A retired queue is abandoned.
		if !q.retired && len(q.keys) > 0 {
			ox.scheduleLocked(q, time.Now())
		}
	}
}

// flush blocks until every queue has drained and every in-flight send has
// completed, or timeout elapses (<= 0 selects the configured
// FlushTimeout). It reports whether the drain completed. Queues waiting
// out a failure backoff count as pending: flushing a cluster with a down
// peer times out rather than lying.
func (ox *outbox) flush(timeout time.Duration) bool {
	if timeout <= 0 {
		timeout = ox.cfg.FlushTimeout
	}
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		ox.mu.Lock()
		ox.cond.Broadcast()
		ox.mu.Unlock()
	})
	defer wake.Stop()
	ox.mu.Lock()
	defer ox.mu.Unlock()
	for (ox.pending > 0 || ox.inflight > 0) && time.Now().Before(deadline) {
		ox.cond.Wait()
	}
	return ox.pending == 0 && ox.inflight == 0
}

// stop gracefully flushes, then terminates the workers. Entries still
// queued when the flush budget runs out (a peer mid-backoff) are dropped,
// exactly like the paper's overflowing mail queues at shutdown.
func (ox *outbox) stop() {
	ox.flush(ox.cfg.FlushTimeout)
	ox.mu.Lock()
	ox.stopped = true
	for _, q := range ox.queues {
		if n := len(q.keys); n > 0 {
			ox.dropped.Add(int64(n))
			ox.pending -= n
			q.keys = q.keys[:0]
			q.byKey = make(map[string]outEntry)
		}
	}
	ox.cond.Broadcast()
	ox.mu.Unlock()
	ox.wg.Wait()
}

// depth returns the entries currently queued across all peers.
func (ox *outbox) depth() int {
	ox.mu.Lock()
	defer ox.mu.Unlock()
	return ox.pending
}
