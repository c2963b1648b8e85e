package node

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// twoNodes wires a pair of nodes over LocalPeers with a shared simulated
// clock.
func twoNodes(t *testing.T, cfgMut func(*Config)) (*Node, *Node, *timestamp.Simulated) {
	t.Helper()
	src := timestamp.NewSimulated(1)
	mk := func(site timestamp.SiteID) *Node {
		cfg := Config{Site: site, Clock: src.ClockAt(site), Seed: int64(site) + 100}
		if cfgMut != nil {
			cfgMut(&cfg)
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := mk(1), mk(2)
	a.SetPeers([]Peer{NewLocalPeer(b, 1)})
	b.SetPeers([]Peer{NewLocalPeer(a, 2)})
	return a, b, src
}

func TestNewDefaults(t *testing.T) {
	n, err := New(Config{Site: 7})
	if err != nil {
		t.Fatal(err)
	}
	if n.Site() != 7 {
		t.Errorf("Site = %d", n.Site())
	}
	if n.Store() == nil {
		t.Fatal("no store")
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{Site: 1, Rumor: core.RumorConfig{K: -1, Mode: core.Push}}); err == nil {
		t.Error("bad rumor config accepted")
	}
	if _, err := New(Config{Site: 1, Resolve: core.ResolveConfig{Mode: core.Push, Strategy: core.ComparePeelBack}}); err == nil {
		t.Error("bad resolve config accepted")
	}
}

func TestUpdateLookupLocal(t *testing.T) {
	a, _, _ := twoNodes(t, nil)
	a.Update("k", store.Value("v"))
	if v, ok := a.Lookup("k"); !ok || string(v) != "v" {
		t.Fatalf("Lookup = %q, %v", v, ok)
	}
	if len(a.HotEntries()) != 1 {
		t.Fatal("fresh update should be hot")
	}
	if a.Stats().UpdatesAccepted != 1 {
		t.Fatal("stats not counted")
	}
}

func TestDirectMailDelivers(t *testing.T) {
	a, b, _ := twoNodes(t, func(c *Config) { c.DirectMailOnUpdate = true })
	a.Update("k", store.Value("v"))
	if !a.FlushMail(0) { // the unstarted node drained on Update: nothing left
		t.Fatal("outbox flush timed out")
	}
	if v, ok := b.Lookup("k"); !ok || string(v) != "v" {
		t.Fatalf("mail did not deliver: %q %v", v, ok)
	}
	if a.Stats().MailSent != 1 {
		t.Fatalf("MailSent = %d", a.Stats().MailSent)
	}
	// Mail from a known peer is vouched for: the update is a rumor at
	// neither end.
	if len(a.HotEntries()) != 0 || len(b.HotEntries()) != 0 {
		t.Fatalf("hot at origin %d, at recipient %d; want 0 and 0", len(a.HotEntries()), len(b.HotEntries()))
	}
}

// TestStopUnstartedNodeWithDaemonPeriods: Stop on a node that was never
// started returns even when daemon periods are configured — no daemon ran,
// so there is nothing to wait for.
func TestStopUnstartedNodeWithDaemonPeriods(t *testing.T) {
	n, err := New(Config{Site: 1, AntiEntropyEvery: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() {
		n.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop on an unstarted node still blocked after 2s")
	}
}

// TestOutboxUnstartedUpdateMailsOnCaller: an unstarted node has no mail workers,
// so Update itself drains the outbox — every peer holds the update when it
// returns, and no goroutine was started to get it there.
func TestOutboxUnstartedUpdateMailsOnCaller(t *testing.T) {
	src := timestamp.NewSimulated(1)
	mk := func(site timestamp.SiteID, mail bool) *Node {
		n, err := New(Config{Site: site, Clock: src.ClockAt(site), DirectMailOnUpdate: mail})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := mk(1, true)
	targets := []*Node{mk(2, false), mk(3, false), mk(4, false)}
	var peers []Peer
	for i, b := range targets {
		peers = append(peers, NewLocalPeer(b, int64(i)))
	}
	a.SetPeers(peers)

	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		a.Update(key, store.Value("v"))
		for _, b := range targets {
			if _, ok := b.Lookup(key); !ok {
				t.Fatalf("site %d lacks %s when Update returned", b.Site(), key)
			}
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d -> %d: an unstarted node's mail must not leave the caller", before, after)
	}
	if s := a.Stats(); s.MailSent != 30 || s.OutboxBatches != 30 || s.OutboxDepth != 0 {
		t.Errorf("mail sent %d in %d batches, depth %d; want 30, 30, 0", s.MailSent, s.OutboxBatches, s.OutboxDepth)
	}
}

func TestRumorPushPropagates(t *testing.T) {
	a, b, _ := twoNodes(t, func(c *Config) {
		c.Rumor = core.RumorConfig{K: 2, Counter: true, Feedback: true, Mode: core.Push}
	})
	a.Update("k", store.Value("v"))
	if err := a.StepRumor(); err != nil {
		t.Fatal(err)
	}
	if v, ok := b.Lookup("k"); !ok || string(v) != "v" {
		t.Fatalf("rumor did not deliver: %q %v", v, ok)
	}
}

func TestRumorPullPropagates(t *testing.T) {
	a, b, _ := twoNodes(t, func(c *Config) {
		c.Rumor = core.RumorConfig{K: 2, Counter: true, Feedback: true, Mode: core.Pull}
	})
	b.Update("k", store.Value("v")) // hot at b
	if err := a.StepRumor(); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Lookup("k"); !ok {
		t.Fatal("pull did not fetch the rumor")
	}
}

func TestRumorDiesAfterKUnnecessary(t *testing.T) {
	a, b, _ := twoNodes(t, func(c *Config) {
		c.Rumor = core.RumorConfig{K: 2, Counter: true, Feedback: true, Mode: core.Push}
	})
	a.Update("k", store.Value("v"))
	// First push: needed. Then two unnecessary pushes kill the rumor.
	for i := 0; i < 3; i++ {
		if err := a.StepRumor(); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.HotEntries()) != 0 {
		t.Fatal("rumor should be removed after k unnecessary shares")
	}
	_ = b
}

// batchPeer records every rumor offer and push it receives. It wants the
// offered ids whose position is in wantAt (nil: all of them) and reports
// every pushed entry as needed, so the sender keeps them hot.
type batchPeer struct {
	countingPeer
	wantAt  map[int]bool
	offers  [][]store.Entry
	batches [][]store.Entry
}

func (p *batchPeer) OfferRumors(ids []store.Entry) ([]bool, []store.Entry, []trace.Hop, error) {
	p.offers = append(p.offers, ids)
	want := make([]bool, len(ids))
	for i := range want {
		want[i] = p.wantAt == nil || p.wantAt[i]
	}
	return want, nil, nil, nil
}

func (p *batchPeer) PushRumors(entries []store.Entry, _ []trace.Hop) ([]bool, error) {
	p.batches = append(p.batches, entries)
	needed := make([]bool, len(entries))
	for i := range needed {
		needed[i] = true
	}
	return needed, nil
}

func TestStepRumorNoPeers(t *testing.T) {
	n, err := New(Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.StepRumor(); err != ErrNoPeers {
		t.Errorf("err = %v, want ErrNoPeers", err)
	}
	if err := n.StepAntiEntropy(); err != ErrNoPeers {
		t.Errorf("err = %v, want ErrNoPeers", err)
	}
}

func TestAntiEntropyRepairs(t *testing.T) {
	a, b, _ := twoNodes(t, nil)
	a.Update("x", store.Value("1"))
	b.Update("y", store.Value("2"))
	if err := a.StepAntiEntropy(); err != nil {
		t.Fatal(err)
	}
	if !store.ContentEqual(a.Store(), b.Store()) {
		t.Fatal("replicas differ after anti-entropy")
	}
	st := a.Stats()
	if st.AntiEntropyRuns != 1 || st.EntriesApplied == 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestAntiEntropyRedistributesAsRumor(t *testing.T) {
	a, b, _ := twoNodes(t, func(c *Config) { c.Redistribution = core.RedistributeRumor })
	// Simulate an update that reached b but is no longer hot anywhere.
	e := b.Store().Update("cold", store.Value("v"))
	_ = e
	if err := a.StepAntiEntropy(); err != nil {
		t.Fatal(err)
	}
	// a repaired the miss; the update must be hot again at a.
	if len(a.HotEntries()) != 1 {
		t.Fatalf("repaired update not redistributed: hot=%d", len(a.HotEntries()))
	}
	if a.Stats().Redistributed != 1 {
		t.Errorf("Redistributed = %d", a.Stats().Redistributed)
	}
}

func TestAntiEntropyRedistributesByMail(t *testing.T) {
	a, b, _ := twoNodes(t, func(c *Config) { c.Redistribution = core.RedistributeMail })
	b.Store().Update("cold", store.Value("v"))
	if err := a.StepAntiEntropy(); err != nil {
		t.Fatal(err)
	}
	if !a.FlushMail(0) { // redistribution mails through the outbox
		t.Fatal("outbox flush timed out")
	}
	if a.Stats().MailSent == 0 {
		t.Error("expected remailing")
	}
}

func TestRedistributeNoneLeavesColdUpdatesCold(t *testing.T) {
	a, b, _ := twoNodes(t, func(c *Config) { c.Redistribution = core.RedistributeNone })
	b.Store().Update("cold", store.Value("v"))
	if err := a.StepAntiEntropy(); err != nil {
		t.Fatal(err)
	}
	if len(a.HotEntries()) != 0 {
		t.Error("conservative policy must not re-hot updates")
	}
	if _, ok := a.Lookup("cold"); !ok {
		t.Error("repair itself must still happen")
	}
}

func TestDeleteCreatesRetainedCertificate(t *testing.T) {
	a, b, _ := twoNodes(t, func(c *Config) { c.RetentionCount = 2 })
	a.Update("k", store.Value("v"))
	if err := a.StepAntiEntropy(); err != nil {
		t.Fatal(err)
	}
	dc := a.Delete("k")
	if !dc.IsDeath() {
		t.Fatal("Delete did not produce a death certificate")
	}
	if len(dc.Retention) != 2 {
		t.Fatalf("retention = %v, want 2 sites", dc.Retention)
	}
	if err := a.StepAntiEntropy(); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup("k"); ok {
		t.Fatal("delete did not propagate")
	}
}

func TestStepGCExpires(t *testing.T) {
	a, _, src := twoNodes(t, func(c *Config) { c.Tau1 = 10; c.Tau2 = 20 })
	a.Delete("k")
	src.Advance(100)
	if dropped := a.StepGC(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if a.Stats().CertificatesExpired != 1 {
		t.Error("stats not counted")
	}
}

func TestHotEntriesDropsSuperseded(t *testing.T) {
	a, _, _ := twoNodes(t, nil)
	a.Update("k", store.Value("v1"))
	// Supersede directly in the store without touching the hot list.
	a.Store().Update("k", store.Value("v2"))
	hot := a.HotEntries()
	// The hot list entry for the old stamp must be dropped, not resent.
	for _, e := range hot {
		if string(e.Value) == "v1" {
			t.Fatal("stale version still hot")
		}
	}
}

func TestPeersAccessors(t *testing.T) {
	a, b, _ := twoNodes(t, nil)
	got := a.Peers()
	if len(got) != 1 || got[0].ID() != b.Site() {
		t.Fatalf("Peers = %v", got)
	}
	// Mutating the returned slice must not affect the node.
	got[0] = nil
	if a.Peers()[0] == nil {
		t.Fatal("Peers aliases internal state")
	}
}

func TestPartitionedPeerFailsExchanges(t *testing.T) {
	a, b, _ := twoNodes(t, nil)
	lp := a.Peers()[0].(*LocalPeer)
	lp.SetDown(true)
	a.SetPeers([]Peer{lp})
	a.Update("k", store.Value("v"))
	if err := a.StepRumor(); err == nil {
		t.Error("rumor to downed peer should fail")
	}
	if err := a.StepAntiEntropy(); err == nil {
		t.Error("anti-entropy to downed peer should fail")
	}
	lp.SetDown(false)
	if err := a.StepAntiEntropy(); err != nil {
		t.Errorf("recovered peer still failing: %v", err)
	}
	if _, ok := b.Lookup("k"); !ok {
		t.Error("update not delivered after partition heal")
	}
}

func TestMailLoss(t *testing.T) {
	a, b, _ := twoNodes(t, func(c *Config) { c.DirectMailOnUpdate = true })
	lp := a.Peers()[0].(*LocalPeer)
	lp.SetMailLoss(1) // drop everything
	a.SetPeers([]Peer{lp})
	a.Update("k", store.Value("v"))
	if !a.FlushMail(0) { // make sure the drop happened, not just a queue
		t.Fatal("outbox flush timed out")
	}
	if _, ok := b.Lookup("k"); ok {
		t.Fatal("lossy mail delivered anyway")
	}
	// Anti-entropy recovers the loss, as designed (§1.3).
	if err := a.StepAntiEntropy(); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup("k"); !ok {
		t.Fatal("anti-entropy did not recover lost mail")
	}
}

func TestStartStopDaemons(t *testing.T) {
	src := timestamp.NewSimulated(1)
	a, err := New(Config{
		Site: 1, Clock: src.ClockAt(1),
		AntiEntropyEvery: time.Millisecond,
		RumorEvery:       time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Site: 2, Clock: src.ClockAt(2)})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeers([]Peer{NewLocalPeer(b, 1)})
	b.SetPeers([]Peer{NewLocalPeer(a, 2)})

	a.Update("k", store.Value("v"))
	a.Start()
	deadline := time.After(2 * time.Second)
	for {
		if _, ok := b.Lookup("k"); ok {
			break
		}
		select {
		case <-deadline:
			a.Stop()
			t.Fatal("daemons did not propagate update within deadline")
		case <-time.After(2 * time.Millisecond):
		}
	}
	a.Stop() // must not hang; waits for daemon exit
}

func TestStopWithoutDaemons(t *testing.T) {
	n, err := New(Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	n.Stop() // no daemons configured: immediate
}

func TestSnapshotPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "replica.snap")
	src := timestamp.NewSimulated(1)

	n1, err := New(Config{Site: 1, Clock: src.ClockAt(1), SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	n1.Update("k", store.Value("v"))
	n1.Start()
	n1.Stop() // final snapshot

	// A restarted replica recovers its state.
	n2, err := New(Config{Site: 1, Clock: src.ClockAt(1), SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := n2.Lookup("k"); !ok || string(v) != "v" {
		t.Fatalf("restart lost data: %q %v", v, ok)
	}
}

func TestSnapshotDaemonWrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "replica.snap")
	n, err := New(Config{Site: 1, SnapshotPath: path, SnapshotEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	n.Update("k", store.Value("v"))
	n.Start()
	deadline := time.After(2 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		select {
		case <-deadline:
			n.Stop()
			t.Fatal("snapshot daemon never wrote")
		case <-time.After(2 * time.Millisecond):
		}
	}
	n.Stop()
}

func TestSaveSnapshotNoPath(t *testing.T) {
	n, err := New(Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SaveSnapshot(""); err == nil {
		t.Error("expected error without a path")
	}
}

func TestNewRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Site: 1, SnapshotPath: path}); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}
