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

// recorder collects events thread-safely.
type recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *recorder) record(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recorder) reset() {
	r.mu.Lock()
	r.events = nil
	r.mu.Unlock()
}

func (r *recorder) byKind(k EventKind) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{EventAntiEntropy, EventRumor, EventRedistribute, EventGC,
		EventMailFailed, EventUpdate, EventApply}
	for _, k := range kinds {
		if k.String() == "invalid" {
			t.Errorf("kind %d unnamed", int(k))
		}
	}
	if EventKind(0).String() != "invalid" {
		t.Error("zero kind should be invalid")
	}
}

func TestEventsEmitted(t *testing.T) {
	rec := &recorder{}
	src := timestamp.NewSimulated(1)
	a, err := New(Config{
		Site: 1, Clock: src.ClockAt(1), Seed: 1,
		Tau1: 5, Tau2: 5,
		OnEvent: rec.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Site: 2, Clock: src.ClockAt(2), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeers([]Peer{NewLocalPeer(b, 1)})

	// Anti-entropy repairing a cold entry fires exchange + redistribute.
	b.Store().Update("cold", store.Value("v"))
	if err := a.StepAntiEntropy(); err != nil {
		t.Fatal(err)
	}
	ae := rec.byKind(EventAntiEntropy)
	if len(ae) != 1 || ae[0].Peer != 2 || ae[0].Stats.EntriesApplied == 0 {
		t.Fatalf("anti-entropy events = %+v", ae)
	}
	rd := rec.byKind(EventRedistribute)
	if len(rd) != 1 || rd[0].Count != 1 || rd[0].Keys[0] != "cold" {
		t.Fatalf("redistribute events = %+v", rd)
	}

	// Rumor round fires EventRumor.
	if err := a.StepRumor(); err != nil {
		t.Fatal(err)
	}
	if len(rec.byKind(EventRumor)) != 1 {
		t.Fatal("rumor event missing")
	}

	// GC fires with the drop count.
	a.Delete("gone")
	src.Advance(100)
	a.StepGC()
	gc := rec.byKind(EventGC)
	if len(gc) != 1 || gc[0].Count != 1 {
		t.Fatalf("gc events = %+v", gc)
	}
}

func TestMailFailureEvent(t *testing.T) {
	rec := &recorder{}
	src := timestamp.NewSimulated(1)
	b, err := New(Config{Site: 2, Clock: src.ClockAt(2)})
	if err != nil {
		t.Fatal(err)
	}
	lp := NewLocalPeer(b, 1)
	lp.SetDown(true)

	a, err := New(Config{
		Site: 1, Clock: src.ClockAt(1),
		DirectMailOnUpdate: true,
		OnEvent:            rec.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeers([]Peer{lp})
	_ = a // Mail to a downed LocalPeer silently drops (returns nil)...
	a.Update("k", store.Value("v"))
	a.FlushMail(0)
	// ...so no failure event; flip to an erroring peer.
	if got := rec.byKind(EventMailFailed); len(got) != 0 {
		t.Fatalf("unexpected mail failures: %+v", got)
	}

	ep := &erroringPeer{id: 3}
	a.SetPeers([]Peer{ep})
	a.Update("k2", store.Value("v"))
	a.FlushMail(0) // wait for the drain; the failed batch is dropped, not retried
	if got := rec.byKind(EventMailFailed); len(got) != 1 || got[0].Peer != 3 || got[0].Count != 1 {
		t.Fatalf("mail failure events = %+v", got)
	}
}

// TestUpdateAndApplyEvents walks every origination/infection emission
// path: local update, mail delivery, a rumor push, and both sides of an
// anti-entropy conversation.
func TestUpdateAndApplyEvents(t *testing.T) {
	recA, recB := &recorder{}, &recorder{}
	src := timestamp.NewSimulated(1)
	a, err := New(Config{Site: 1, Clock: src.ClockAt(1), Seed: 1, OnEvent: recA.record})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Site: 2, Clock: src.ClockAt(2), Seed: 2, OnEvent: recB.record})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeers([]Peer{NewLocalPeer(b, 1)})
	b.SetPeers([]Peer{NewLocalPeer(a, 2)})

	// Local write: EventUpdate with the accepted entry's key and stamp.
	e := a.Update("k1", store.Value("v"))
	up := recA.byKind(EventUpdate)
	if len(up) != 1 || up[0].Key != "k1" || up[0].Stamp != e.Stamp {
		t.Fatalf("update events = %+v", up)
	}
	if len(recA.byKind(EventApply)) != 0 {
		t.Fatal("a local update must not count as an infection")
	}

	// Mail delivery that changes the recipient: EventApply there.
	b.HandleMail(e, trace.Hop{})
	ap := recB.byKind(EventApply)
	if len(ap) != 1 || ap[0].Key != "k1" || ap[0].Stamp != e.Stamp {
		t.Fatalf("apply events after mail = %+v", ap)
	}
	// Redelivery changes nothing, so no second apply.
	b.HandleMail(e, trace.Hop{})
	if got := recB.byKind(EventApply); len(got) != 1 {
		t.Fatalf("duplicate mail fired an apply: %+v", got)
	}

	// Rumor push: one apply per entry that landed.
	src.Advance(1)
	e2 := a.Update("k2", store.Value("v2"))
	needed := b.HandleRumors([]store.Entry{e2}, nil)
	if len(needed) != 1 || !needed[0] {
		t.Fatalf("needed = %v", needed)
	}
	found := false
	for _, ev := range recB.byKind(EventApply) {
		if ev.Key == "k2" && ev.Stamp == e2.Stamp {
			found = true
		}
	}
	if !found {
		t.Fatalf("rumor apply missing: %+v", recB.byKind(EventApply))
	}

	// Anti-entropy repairs flow both ways: the initiator emits applies for
	// entries it received, the responder (via the peer's noteRepaired) for
	// entries pushed onto it.
	src.Advance(1)
	a.Update("onlyA", store.Value("va"))
	src.Advance(1)
	b.Update("onlyB", store.Value("vb"))
	recA.reset()
	recB.reset()
	if err := a.StepAntiEntropy(); err != nil {
		t.Fatal(err)
	}
	gotA := recA.byKind(EventApply)
	if len(gotA) != 1 || gotA[0].Key != "onlyB" || gotA[0].Peer != 2 {
		t.Fatalf("initiator applies = %+v", gotA)
	}
	gotB := recB.byKind(EventApply)
	if len(gotB) != 1 || gotB[0].Key != "onlyA" || gotB[0].Peer != 1 {
		t.Fatalf("responder applies = %+v", gotB)
	}
}

// TestSetOnEvent covers late observer installation and removal.
func TestSetOnEvent(t *testing.T) {
	rec := &recorder{}
	n, err := New(Config{Site: 1, Clock: timestamp.NewSimulated(1).ClockAt(1)})
	if err != nil {
		t.Fatal(err)
	}
	n.Update("before", store.Value("v"))
	n.SetOnEvent(rec.record)
	n.Update("k", store.Value("v"))
	if got := rec.byKind(EventUpdate); len(got) != 1 || got[0].Key != "k" {
		t.Fatalf("after install: %+v", got)
	}
	n.SetOnEvent(nil)
	n.Update("after", store.Value("v"))
	if got := rec.byKind(EventUpdate); len(got) != 1 {
		t.Fatalf("events after removal: %+v", got)
	}
}

// TestEmitNotUnderNodeLock drives every emission path with an observer
// that try-locks n.mu: in this single-goroutine test a failed TryLock
// could only mean emit was called with the node's own lock held — the
// deadlock the emit contract rules out (observers may call back into the
// node).
func TestEmitNotUnderNodeLock(t *testing.T) {
	src := timestamp.NewSimulated(1)
	var a *Node
	probe := func(e Event) {
		if !a.mu.TryLock() {
			t.Errorf("emit(%v) called with n.mu held", e.Kind)
			return
		}
		a.mu.Unlock()
		// Re-entering the node exercises the contract for real.
		_ = a.Stats()
	}
	a, err := New(Config{
		Site: 1, Clock: src.ClockAt(1), Seed: 1,
		Tau1: 5, Tau2: 5,
		DirectMailOnUpdate: true,
		// Serial mail keeps this a single-goroutine test: with the async
		// engine a worker's emit could TryLock while the main goroutine
		// legitimately holds n.mu, a false positive. The serial path and
		// the workers' noteMailResult share the same no-locks-held emit.
		Outbox:  OutboxConfig{Workers: -1},
		OnEvent: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Site: 2, Clock: src.ClockAt(2), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeers([]Peer{NewLocalPeer(b, 1)})

	a.Update("k", store.Value("v")) // update + mail
	b.Store().Update("cold", store.Value("v"))
	if err := a.StepAntiEntropy(); err != nil { // apply + redistribute + exchange
		t.Fatal(err)
	}
	if err := a.StepRumor(); err != nil { // rumor round
		t.Fatal(err)
	}
	e := b.Store().Update("mailed", store.Value("v"))
	a.HandleMail(e, trace.Hop{}) // apply via mail
	e2 := b.Store().Update("rumored", store.Value("v"))
	a.HandleRumors([]store.Entry{e2}, nil) // apply via rumor push
	a.ApplyRepair(b.Store().Update("fixed", store.Value("v")), 2, trace.Hop{}, trace.MechAntiEntropy)
	a.SetPeers([]Peer{&erroringPeer{id: 3}})
	a.Update("k2", store.Value("v")) // mail failure
	a.Delete("gone")                 // update (death certificate)
	src.Advance(100)
	a.StepGC() // gc
}

// TestEventsWithDaemonsRunning lets the background daemons race real
// client writes, then checks the observer saw the traffic. Run under
// -race this also proves the emission paths are data-race free.
func TestEventsWithDaemonsRunning(t *testing.T) {
	rec := &recorder{}
	a, err := New(Config{
		Site:               1,
		DirectMailOnUpdate: true,
		AntiEntropyEvery:   2 * time.Millisecond,
		RumorEvery:         time.Millisecond,
		OnEvent:            rec.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{
		Site:             2,
		AntiEntropyEvery: 2 * time.Millisecond,
		RumorEvery:       time.Millisecond,
		OnEvent:          rec.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeers([]Peer{NewLocalPeer(b, 1)})
	b.SetPeers([]Peer{NewLocalPeer(a, 2)})
	a.Start()
	b.Start()
	for i := 0; i < 5; i++ {
		a.Update("ka", store.Value{byte(i)})
		b.Update("kb", store.Value{byte(i)})
		time.Sleep(3 * time.Millisecond)
	}
	a.Stop()
	b.Stop()

	if got := rec.byKind(EventUpdate); len(got) != 10 {
		t.Errorf("update events = %d, want 10", len(got))
	}
	if len(rec.byKind(EventAntiEntropy)) == 0 {
		t.Error("no anti-entropy events under daemons")
	}
	if len(rec.byKind(EventRumor)) == 0 {
		t.Error("no rumor events under daemons")
	}
	if len(rec.byKind(EventApply)) == 0 {
		t.Error("no apply events although updates crossed replicas")
	}
}

// erroringPeer fails everything.
type erroringPeer struct{ id timestamp.SiteID }

func (p *erroringPeer) ID() timestamp.SiteID { return p.id }
func (p *erroringPeer) AntiEntropy(core.ResolveConfig, *store.Store, *trace.Tracer) (core.ExchangeStats, error) {
	return core.ExchangeStats{}, ErrPeerDown
}
func (p *erroringPeer) PushRumors([]store.Entry, []trace.Hop) ([]bool, error) {
	return nil, ErrPeerDown
}
func (p *erroringPeer) OfferRumors([]store.Entry) ([]bool, []store.Entry, []trace.Hop, error) {
	return nil, nil, nil, ErrPeerDown
}
func (p *erroringPeer) Checksum(int64) (uint64, error) { return 0, ErrPeerDown }
func (p *erroringPeer) Mail(store.Entry, trace.Hop) error {
	return ErrPeerDown
}
