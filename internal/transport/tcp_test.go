package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/node"
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

// mailOne posts e to peer as a one-entry mail batch, the smallest outbox
// drain.
func mailOne(peer node.Peer, e store.Entry) error {
	return peer.MailBatch(node.MailBatch{Entries: []store.Entry{e}})
}

func TestTCPMail(t *testing.T) {
	a, b := tcpPair(t)
	e := a.Update("k", store.Value("v"))
	if err := mailOne(a.Peers()[0], e); err != nil {
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
	// each way) forces the capped full-swap fallback. The local replica
	// runs one shard, so the vector has one bucket and its walk is the
	// whole store's: it spends its budget, the conversation falls to the
	// single-bucket walk, which spends its own, and the full swap runs.
	local := store.NewSharded(1, timestamp.NewSimulated(1<<30).ClockAt(1), 1)
	for i := 0; i < 50; i++ {
		local.Update(fmt.Sprintf("only-a-%02d", i), store.Value("x"))
	}
	stats := &WireStats{}
	peer := NewTCPPeerWith(2, a.Peers()[0].(*TCPPeer).Addr(),
		PeerOptions{MaxPeelRounds: 1, Stats: stats})
	defer peer.Close()
	st, err := peer.AntiEntropy(core.ResolveConfig{
		Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 0, BatchSize: 4,
	}, local, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullCompare {
		t.Errorf("expected full-swap last resort: %+v", st)
	}
	if snap := stats.Snapshot(); snap.ShardVecDowngrades != 1 || snap.ShardVecExchanges != 0 || st.ShardsRepaired != 0 {
		t.Errorf("expected the single-bucket walk after one downgrade: %+v, repaired %d", snap, st.ShardsRepaired)
	}
	if !store.ContentEqual(local, b.Store()) {
		t.Fatal("replicas differ after full swap")
	}
}

func TestTCPPeerUnreachable(t *testing.T) {
	a, _ := tcpPair(t)
	// Nothing listens here; a short timeout keeps the test fast.
	dead := NewTCPPeerWith(3, "127.0.0.1:1", PeerOptions{Timeout: 200 * time.Millisecond})
	if err := mailOne(dead, store.Entry{Key: "k"}); err == nil {
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

// TestServerRejectsGarbageBytes: a stream that does not open with the hello
// is closed without an answer, and the server keeps serving.
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

	// Plain garbage, and a well-formed request frame sent without a hello.
	for _, stream := range [][]byte{[]byte("this is not a frame"), mailFrame("sneaky")} {
		if got := refusedStream(t, srv.Addr(), stream); len(got) != 0 {
			t.Errorf("server answered a hello-less stream with % x", got)
		}
	}
	if _, ok := n.Lookup("sneaky"); ok {
		t.Fatal("server applied a request that arrived without a hello")
	}
	// The server must survive; a real request still works.
	peer := NewTCPPeer(1, srv.Addr())
	defer peer.Close()
	if err := mailOne(peer, store.Entry{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1}}); err != nil {
		t.Fatalf("server wedged after garbage: %v", err)
	}
	if _, ok := n.Lookup("k"); !ok {
		t.Fatal("mail after garbage not applied")
	}
}

// mailFrame is a framed one-entry mail batch for key, header included.
func mailFrame(key string) []byte {
	frame := appendRequest(make([]byte, frameHeaderLen), &request{Kind: reqMailBatch, Entries: []store.Entry{
		{Key: key, Value: store.Value("v"), Stamp: timestamp.T{Time: 1}},
	}})
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-frameHeaderLen))
	return frame
}

// refusedStream writes stream on a fresh connection to addr and returns
// every byte the server sent back before it closed the connection.
func refusedStream(t *testing.T, addr string, stream []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("server kept the connection open: %v", err)
	}
	return got
}

// TestServerRefusesOtherWireVersions: a hello naming any version but the
// one spoken is answered with that version and closed without serving the
// request behind it; a client that hears another version back fails with
// ErrFrameGarbage; and the server keeps serving.
func TestServerRefusesOtherWireVersions(t *testing.T) {
	n, err := node.New(node.Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// 7 is the layout the previous build speaks: digests carrying the two
	// UDP counters. 6 had requests with a vector section and kind 7 live.
	for _, version := range []byte{1, 4, 5, 6, 7, 9} {
		stream := append([]byte{'E', 'P', 'G', version}, mailFrame("old")...)
		if got := refusedStream(t, srv.Addr(), stream); !bytes.Equal(got, []byte{wireVersion}) {
			t.Errorf("v%d hello: server sent % x, want only its version byte", version, got)
		}
	}
	if _, ok := n.Lookup("old"); ok {
		t.Fatal("server served a request behind a refused hello")
	}

	// A server that answers with an older version — 4 as a v4-capped build
	// did, 7 as the previous build does — is refused by the client.
	for _, version := range []byte{4, 5, 6, 7} {
		old := fakeServer(t, func(conn net.Conn) {
			defer conn.Close()
			acceptHello(conn, version)
			_, _ = io.Copy(io.Discard, conn)
		})
		peer := NewTCPPeerWith(1, old, PeerOptions{Timeout: time.Second})
		if err := mailOne(peer, store.Entry{Key: "k"}); !errors.Is(err, ErrFrameGarbage) {
			t.Errorf("mail to a v%d server: err = %v, want ErrFrameGarbage", version, err)
		}
		peer.Close()
	}

	live := NewTCPPeer(1, srv.Addr())
	defer live.Close()
	if err := mailOne(live, store.Entry{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1}}); err != nil {
		t.Fatalf("server wedged after refused hellos: %v", err)
	}
}

// TestMistypedCodecFailsEveryRequest: a peer built with a Codec name that
// is not the one format fails every request with the error ServeWith gives
// for that name — it never dials — where it once spoke an old protocol
// without a word.
func TestMistypedCodecFailsEveryRequest(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	n := wireNode(t, 2, src)
	_, serveErr := ServeWith(n, "127.0.0.1:0", ServerOptions{Codec: "binray"})
	if serveErr == nil {
		t.Fatal("ServeWith accepted codec \"binray\"")
	}
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stats := &WireStats{}
	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{Codec: "binray", Stats: stats})
	defer peer.Close()
	e := store.Entry{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1, Site: 1}}
	local := store.New(1, src.ClockAt(1))
	local.Apply(e)
	calls := map[string]func() error{
		"mail-batch": func() error { return mailOne(peer, e) },
		"push":       func() error { _, err := peer.PushRumors([]store.Entry{e}, nil); return err },
		"offer":      func() error { _, _, _, err := peer.OfferRumors(nil); return err },
		"checksum":   func() error { _, err := peer.Checksum(0); return err },
		"anti-entropy": func() error {
			_, err := peer.AntiEntropy(core.ResolveConfig{Mode: core.PushPull, Strategy: core.CompareRecent}, local, nil)
			return err
		},
	}
	for name, call := range calls {
		if err := call(); err == nil || err.Error() != serveErr.Error() {
			t.Errorf("%s: err = %v, want %v", name, err, serveErr)
		}
	}
	if _, ok := n.Lookup("k"); ok {
		t.Error("an entry crossed the wire from a misconfigured peer")
	}
	if snap := stats.Snapshot(); snap != (WireSnapshot{}) {
		t.Errorf("misconfigured peer touched the wire: %+v", snap)
	}
}
