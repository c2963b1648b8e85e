package transport

import (
	"fmt"
	"net"
	"testing"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// tcpPair starts two nodes with TCP servers and wires them as peers.
func tcpPair(t *testing.T) (*node.Node, *node.Node) {
	t.Helper()
	src := timestamp.NewSimulated(1 << 30)
	mk := func(site timestamp.SiteID) (*node.Node, *Server) {
		n, err := node.New(node.Config{
			Site:  site,
			Clock: src.ClockAt(site),
			Rumor: core.RumorConfig{K: 3, Counter: true, Feedback: true, Mode: core.PushPull},
			Resolve: core.ResolveConfig{
				Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1 << 40,
			},
			Seed: int64(site),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Serve(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return n, srv
	}
	a, sa := mk(1)
	b, sb := mk(2)
	a.SetPeers([]node.Peer{NewTCPPeer(2, sb.Addr())})
	b.SetPeers([]node.Peer{NewTCPPeer(1, sa.Addr())})
	return a, b
}

func TestTCPPeerID(t *testing.T) {
	p := NewTCPPeer(9, "127.0.0.1:1")
	if p.ID() != 9 || p.Addr() != "127.0.0.1:1" {
		t.Errorf("peer = %v %v", p.ID(), p.Addr())
	}
}

func TestTCPMail(t *testing.T) {
	a, b := tcpPair(t)
	e := a.Update("k", store.Value("v"))
	if err := a.Peers()[0].Mail(e, trace.Hop{}); err != nil {
		t.Fatal(err)
	}
	if v, ok := b.Lookup("k"); !ok || string(v) != "v" {
		t.Fatalf("Lookup = %q %v", v, ok)
	}
}

func TestTCPRumorPushAndPull(t *testing.T) {
	a, b := tcpPair(t)
	a.Update("k", store.Value("v"))
	if err := a.StepRumor(); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup("k"); !ok {
		t.Fatal("push rumor over TCP failed")
	}
	// Pull direction: update at b, a pulls via its push-pull step.
	b.Update("k2", store.Value("v2"))
	if err := a.StepRumor(); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Lookup("k2"); !ok {
		t.Fatal("pull rumor over TCP failed")
	}
}

func TestTCPAntiEntropyInSync(t *testing.T) {
	a, b := tcpPair(t)
	e := a.Update("k", store.Value("v"))
	b.Store().Apply(e)
	st, err := a.Peers()[0].AntiEntropy(core.ResolveConfig{
		Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1 << 40,
	}, a.Store(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.FullCompare {
		t.Errorf("in-sync stores should not full-compare: %+v", st)
	}
}

func TestTCPAntiEntropyRepairsBothDirections(t *testing.T) {
	a, b := tcpPair(t)
	a.Update("mine", store.Value("1"))
	b.Update("theirs", store.Value("2"))
	if err := a.StepAntiEntropy(); err != nil {
		t.Fatal(err)
	}
	if !store.ContentEqual(a.Store(), b.Store()) {
		t.Fatal("replicas differ after TCP anti-entropy")
	}
}

func TestTCPAntiEntropyPeelBackAvoidsFullSwap(t *testing.T) {
	a, b := tcpPair(t)
	// Old divergence outside any recent window: the wire protocol must
	// repair it by peeling back, never by swapping full databases.
	a.Store().Update("old", store.Value("x"))
	st, err := a.Peers()[0].AntiEntropy(core.ResolveConfig{
		Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 0,
	}, a.Store(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.FullCompare {
		t.Errorf("peel-back should have repaired without a full swap: %+v", st)
	}
	if !store.ContentEqual(a.Store(), b.Store()) {
		t.Fatal("replicas differ after peel-back")
	}
}

func TestTCPAntiEntropyFullSwapLastResort(t *testing.T) {
	a, b := tcpPair(t)
	// More divergence than one peel round can move (batch 4, one round
	// each way) forces the capped full-swap fallback.
	for i := 0; i < 50; i++ {
		a.Store().Update(fmt.Sprintf("only-a-%02d", i), store.Value("x"))
	}
	// DisableShardVector pins the conversation to the global walk: this
	// test is about the global path's capped last resort.
	peer := NewTCPPeerWith(2, a.Peers()[0].(*TCPPeer).Addr(),
		PeerOptions{MaxPeelRounds: 1, DisableShardVector: true})
	defer peer.Close()
	st, err := peer.AntiEntropy(core.ResolveConfig{
		Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 0, BatchSize: 4,
	}, a.Store(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullCompare {
		t.Errorf("expected full-swap last resort: %+v", st)
	}
	if !store.ContentEqual(a.Store(), b.Store()) {
		t.Fatal("replicas differ after full swap")
	}
}

func TestTCPPeerUnreachable(t *testing.T) {
	a, _ := tcpPair(t)
	// Nothing listens here; a short timeout keeps the test fast.
	dead := NewTCPPeerWith(3, "127.0.0.1:1", PeerOptions{Timeout: 200 * time.Millisecond})
	if err := dead.Mail(store.Entry{Key: "k"}, trace.Hop{}); err == nil {
		t.Error("mail to dead peer succeeded")
	}
	if _, _, _, err := dead.OfferRumors(nil); err == nil {
		t.Error("pull from dead peer succeeded")
	}
	if _, err := dead.AntiEntropy(core.ResolveConfig{Mode: core.PushPull, Strategy: core.CompareRecent}, a.Store(), nil); err == nil {
		t.Error("anti-entropy with dead peer succeeded")
	}
}

func TestServerCloseIdempotentAccepts(t *testing.T) {
	n, err := node.New(node.Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr() == "" {
		t.Error("no address")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestTCPClusterConvergence(t *testing.T) {
	// Three nodes over real sockets; drive steps until consistent.
	src := timestamp.NewSimulated(1 << 30)
	var nodes []*node.Node
	var servers []*Server
	for site := timestamp.SiteID(1); site <= 3; site++ {
		n, err := node.New(node.Config{
			Site:    site,
			Clock:   src.ClockAt(site),
			Resolve: core.ResolveConfig{Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1 << 40},
			Seed:    int64(site),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Serve(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		nodes = append(nodes, n)
		servers = append(servers, srv)
	}
	for i, n := range nodes {
		var peers []node.Peer
		for j, srv := range servers {
			if i == j {
				continue
			}
			peers = append(peers, NewTCPPeer(nodes[j].Site(), srv.Addr()))
		}
		n.SetPeers(peers)
	}
	nodes[0].Update("a", store.Value("1"))
	nodes[1].Update("b", store.Value("2"))
	nodes[2].Update("c", store.Value("3"))
	for round := 0; round < 20; round++ {
		for _, n := range nodes {
			if err := n.StepAntiEntropy(); err != nil {
				t.Fatal(err)
			}
		}
		if store.ContentEqual(nodes[0].Store(), nodes[1].Store()) &&
			store.ContentEqual(nodes[1].Store(), nodes[2].Store()) {
			return
		}
	}
	t.Fatal("TCP cluster never converged")
}

// TestTCPPeelBackShipsOrderDelta is the tentpole property: with 10 000
// shared entries and 10 differing ones, the wire conversation moves O(δ)
// entries, not the database.
func TestTCPPeelBackShipsOrderDelta(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	remote, err := node.New(node.Config{Site: 2, Clock: src.ClockAt(2)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	local := store.New(1, src.ClockAt(1))
	const shared, delta = 10_000, 10
	for i := 0; i < shared; i++ {
		e := local.Update(fmt.Sprintf("k%05d", i), store.Value("v"))
		remote.Store().Apply(e)
		src.Advance(1)
	}
	for i := 0; i < delta; i++ {
		local.Update(fmt.Sprintf("fresh%02d", i), store.Value("new"))
		src.Advance(1)
	}
	src.Advance(100) // push the divergence outside any recent window

	peer := NewTCPPeer(2, srv.Addr())
	defer peer.Close()
	st, err := peer.AntiEntropy(core.ResolveConfig{
		Mode: core.PushPull, Strategy: core.CompareRecent,
		Tau: 10, Tau1: 1 << 40, BatchSize: 64,
	}, local, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.FullCompare {
		t.Fatalf("peel-back degraded to a full swap: %+v", st)
	}
	if !store.ContentEqual(local, remote.Store()) {
		t.Fatal("replicas differ after peel-back")
	}
	// A couple of 64-entry batches each way, nowhere near 10 000.
	if moved := st.Transferred(); moved > 6*64 {
		t.Errorf("peel-back moved %d entries for a %d-entry delta", moved, delta)
	}
}

func TestServerRejectsGarbageBytes(t *testing.T) {
	n, err := node.New(node.Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("this is not gob")); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	// The server must survive; a real request still works.
	peer := NewTCPPeer(1, srv.Addr())
	if err := peer.Mail(store.Entry{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1}}, trace.Hop{}); err != nil {
		t.Fatalf("server wedged after garbage: %v", err)
	}
	if _, ok := n.Lookup("k"); !ok {
		t.Fatal("mail after garbage not applied")
	}
}
