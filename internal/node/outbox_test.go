package node

import (
	"sync"
	"testing"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// mkEntry builds a store entry with an explicit stamp for queue tests.
func mkEntry(key string, t int64) store.Entry {
	return store.Entry{Key: key, Value: store.Value("v"), Stamp: timestamp.T{Time: t, Site: 1}}
}

// idleOutbox builds a started engine with zero workers: enqueues
// accumulate and nothing drains, so queue state can be inspected
// deterministically. (node.New never builds one of these — withDefaults
// maps 0 to the default pool — but newOutbox takes the config as given.)
func idleOutbox(t *testing.T, queuePerPeer int, peers ...Peer) *outbox {
	t.Helper()
	n, err := New(Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	ox := newOutbox(OutboxConfig{Workers: 0, QueuePerPeer: queuePerPeer}, n)
	ox.setPeers(peers)
	ox.start()
	return ox
}

// queueOf returns the engine's queue for site, nil when it has none.
func queueOf(ox *outbox, site timestamp.SiteID) *peerQueue {
	for _, q := range ox.queues {
		if q.peer.ID() == site {
			return q
		}
	}
	return nil
}

func TestOutboxCoalesceNewestStampWins(t *testing.T) {
	p := &countingPeer{id: 2}
	ox := idleOutbox(t, 16, p)

	ox.enqueue(mkEntry("a", 10), trace.Hop{})
	ox.enqueue(mkEntry("b", 11), trace.Hop{})
	ox.enqueue(mkEntry("a", 20), trace.Hop{}) // newer version supersedes in place
	ox.enqueue(mkEntry("a", 5), trace.Hop{})  // older version is absorbed

	q := queueOf(ox, 2)
	if len(q.keys) != 2 || q.keys[0] != "a" || q.keys[1] != "b" {
		t.Fatalf("keys = %v, want [a b] (coalescing keeps queue position)", q.keys)
	}
	if got := q.byKey["a"].entry.Stamp.Time; got != 20 {
		t.Errorf("queued stamp for a = %d, want 20 (newest wins)", got)
	}
	if got := ox.coalesced.Load(); got != 2 {
		t.Errorf("coalesced = %d, want 2", got)
	}
	if ox.pending != 2 {
		t.Errorf("pending = %d, want 2", ox.pending)
	}

	b := q.drainLocked(time.Now())
	if len(b.Entries) != 2 || b.Coalesced != 2 {
		t.Errorf("drain = %d entries, coalesced %d; want 2 and 2", len(b.Entries), b.Coalesced)
	}
	if len(q.keys) != 0 || len(q.byKey) != 0 {
		t.Error("drain left queue state behind")
	}
}

func TestOutboxDropOldestOnOverflow(t *testing.T) {
	p := &countingPeer{id: 2}
	ox := idleOutbox(t, 2, p)

	ox.enqueue(mkEntry("a", 1), trace.Hop{})
	ox.enqueue(mkEntry("b", 2), trace.Hop{})
	ox.enqueue(mkEntry("c", 3), trace.Hop{}) // overflows: a (oldest) is dropped

	q := queueOf(ox, 2)
	if len(q.keys) != 2 || q.keys[0] != "b" || q.keys[1] != "c" {
		t.Fatalf("keys = %v, want [b c]", q.keys)
	}
	if got := ox.dropped.Load(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	if ox.pending != 2 {
		t.Errorf("pending = %d, want 2", ox.pending)
	}
}

func TestOutboxSetPeersDropsDepartedKeepsSurvivors(t *testing.T) {
	p2, p3 := &countingPeer{id: 2}, &countingPeer{id: 3}
	ox := idleOutbox(t, 16, p2, p3)
	ox.enqueue(mkEntry("a", 1), trace.Hop{})
	ox.enqueue(mkEntry("b", 2), trace.Hop{})

	// Site 3 departs; site 2's peer object is replaced by a membership
	// refresh — its mail must follow the site.
	p2b := &countingPeer{id: 2}
	ox.setPeers([]Peer{p2b})
	if got := ox.dropped.Load(); got != 2 {
		t.Errorf("dropped = %d, want 2 (departed peer's queue)", got)
	}
	if ox.pending != 2 {
		t.Errorf("pending = %d, want 2 (survivor keeps its mail)", ox.pending)
	}
	q := queueOf(ox, 2)
	if q == nil || q.peer != Peer(p2b) {
		t.Fatal("surviving queue did not adopt the replacement peer object")
	}
	if len(q.keys) != 2 {
		t.Errorf("survivor queue has %d keys, want 2", len(q.keys))
	}
}

// gatedBatchPeer blocks every MailBatch until released, recording each
// batch it eventually receives.
type gatedBatchPeer struct {
	countingPeer
	entered chan struct{} // signalled when a delivery starts blocking
	gate    chan struct{} // receive one token per delivery
	mu      sync.Mutex
	batches []MailBatch
}

func (p *gatedBatchPeer) MailBatch(b MailBatch) error {
	p.entered <- struct{}{}
	<-p.gate
	p.mu.Lock()
	p.batches = append(p.batches, b)
	p.mu.Unlock()
	return nil
}

func (p *gatedBatchPeer) snapshot() []MailBatch {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]MailBatch(nil), p.batches...)
}

func TestOutboxBatchesQueueBuiltWhileSending(t *testing.T) {
	n, err := New(Config{Site: 1, DirectMailOnUpdate: true, Outbox: OutboxConfig{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	p := &gatedBatchPeer{
		countingPeer: countingPeer{id: 2},
		entered:      make(chan struct{}, 8),
		gate:         make(chan struct{}, 8),
	}
	n.SetPeers([]Peer{p})

	// First update drains immediately and blocks in MailBatch; the next
	// three queue up behind it, including one coalescing supersession.
	n.Update("k1", store.Value("v1"))
	<-p.entered // the k1 drain is in flight and wedged
	n.Update("k2", store.Value("v2"))
	n.Update("k3", store.Value("v3"))
	n.Update("k2", store.Value("v2'"))
	p.gate <- struct{}{}
	p.gate <- struct{}{}
	if !n.FlushMail(2 * time.Second) {
		t.Fatal("flush timed out")
	}
	<-p.entered // the coalesced drain

	batches := p.snapshot()
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2 (first entry, then the coalesced rest)", len(batches))
	}
	if len(batches[0].Entries) != 1 || batches[0].Entries[0].Key != "k1" {
		t.Errorf("first batch = %+v, want just k1", batches[0].Entries)
	}
	second := batches[1]
	if len(second.Entries) != 2 {
		t.Fatalf("second batch carried %d entries, want 2 (k2 coalesced with its rewrite)", len(second.Entries))
	}
	if second.Coalesced != 1 {
		t.Errorf("second batch coalesced = %d, want 1", second.Coalesced)
	}
	for _, e := range second.Entries {
		if e.Key == "k2" && string(e.Value) != "v2'" {
			t.Errorf("k2 shipped %q, want the newest version v2'", e.Value)
		}
	}

	s := n.Stats()
	if s.OutboxEnqueued != 3 || s.OutboxCoalesced != 1 || s.OutboxBatches != 2 {
		t.Errorf("stats = enq %d coal %d batches %d, want 3/1/2",
			s.OutboxEnqueued, s.OutboxCoalesced, s.OutboxBatches)
	}
	if s.MailSent != 3 {
		t.Errorf("MailSent = %d, want 3", s.MailSent)
	}
}

func TestOutboxBackoffAndFlushTimeout(t *testing.T) {
	n, err := New(Config{
		Site:               1,
		DirectMailOnUpdate: true,
		Outbox: OutboxConfig{
			Workers:      2,
			RetryBackoff: 50 * time.Millisecond,
			MaxBackoff:   time.Second,
			FlushTimeout: 100 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	n.SetPeers([]Peer{&erroringPeer{id: 2}})

	// The first batch fails and is dropped (lossy mail, §1.2); the queue
	// enters backoff.
	n.Update("k1", store.Value("v"))
	if !n.FlushMail(2 * time.Second) {
		t.Fatal("flush after first failure timed out (failed batches must drop, not retry)")
	}
	if s := n.Stats(); s.MailFailed != 1 {
		t.Fatalf("MailFailed = %d, want 1", s.MailFailed)
	}

	// A second update lands inside the backoff window: it stays pending,
	// so a short flush must report failure rather than lie.
	n.Update("k2", store.Value("v"))
	if n.FlushMail(5 * time.Millisecond) {
		t.Error("flush succeeded while the peer's queue was backing off")
	}
	// Once the backoff expires the drain is attempted (and fails, and is
	// dropped), so a patient flush completes.
	if !n.FlushMail(2 * time.Second) {
		t.Fatal("flush never completed after backoff expiry")
	}
	if s := n.Stats(); s.MailFailed != 2 {
		t.Errorf("MailFailed = %d, want 2", s.MailFailed)
	}
}

// blockingMailPeer wedges every MailBatch call until the test releases
// it — the pathological slow peer of the Stats-under-lock regression.
type blockingMailPeer struct {
	countingPeer
	release chan struct{}
}

func (p *blockingMailPeer) MailBatch(MailBatch) error {
	<-p.release
	return nil
}

// TestRedistributeMailDoesNotBlockStats pins the fix for a lock-ordering
// bug: redistributeRepaired used to hold n.mu across every peer send, so
// one wedged peer made Stats (and Update, and pickPeer) hang. The node is
// unstarted, so the remail drains on the redistributing goroutine itself:
// neither n.mu nor the outbox lock may be held across the send.
func TestRedistributeMailDoesNotBlockStats(t *testing.T) {
	a, err := New(Config{
		Site:           1,
		Redistribution: core.RedistributeMail,
	})
	if err != nil {
		t.Fatal(err)
	}
	slow := &blockingMailPeer{countingPeer: countingPeer{id: 3}, release: make(chan struct{})}
	a.SetPeers([]Peer{slow})
	a.Update("k", store.Value("v"))

	// Redistribute k as an exchange would after repairing it: the remail
	// wedges on the slow peer, outside n.mu.
	done := make(chan struct{})
	go func() {
		a.redistributeRepaired(core.ExchangeStats{AppliedKeys: []string{"k"}})
		close(done)
	}()

	probe := make(chan Stats, 1)
	go func() { probe <- a.Stats() }()
	select {
	case <-probe:
		// Stats returned while mail was blocked: the lock is free.
	case <-time.After(2 * time.Second):
		t.Fatal("Stats() blocked behind a wedged redistribution mail")
	}
	select {
	case <-done:
		t.Fatal("redistribution finished without the peer unblocking — the wedge never engaged")
	default:
	}

	close(slow.release)
	<-done
	if s := a.Stats(); s.Redistributed != 1 || s.MailSent != 1 {
		t.Errorf("redistributed %d, mail sent %d; want 1 and 1", s.Redistributed, s.MailSent)
	}
}
