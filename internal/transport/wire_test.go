package transport

import (
	"net"
	"strings"
	"testing"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// wireNode builds a node with a clock suitable for wire tests.
func wireNode(t *testing.T, site timestamp.SiteID, src *timestamp.Simulated) *node.Node {
	t.Helper()
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
	return n
}

// codecAccepted reports whether a Codec option names the one wire format.
func codecAccepted(name string) bool { return name == "" || name == "binary" }

// expectCodecRefused checks what a retired Codec name does now, on the side
// that names it: ServeWith refuses it, and a peer built with it fails its
// requests with the same error without dialling. n serves that peer's
// attempt. It reports whether either name was refused, in which case there
// is no session left to test.
func expectCodecRefused(t *testing.T, n *node.Node, server, client string) bool {
	t.Helper()
	if !codecAccepted(server) {
		srv, err := ServeWith(n, "127.0.0.1:0", ServerOptions{Codec: server})
		if err == nil {
			_ = srv.Close()
			t.Fatalf("ServeWith accepted codec %q", server)
		}
		if !strings.Contains(err.Error(), "unknown codec") {
			t.Fatalf("ServeWith(%q) = %v, want an unknown-codec error", server, err)
		}
		return true
	}
	if !codecAccepted(client) {
		srv, err := Serve(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		stats := &WireStats{}
		peer := NewTCPPeerWith(n.Site(), srv.Addr(), PeerOptions{Codec: client, Stats: stats})
		defer peer.Close()
		if _, _, _, err := peer.OfferRumors(nil); err == nil || !strings.Contains(err.Error(), "unknown codec") {
			t.Fatalf("peer with codec %q: offer err = %v, want an unknown-codec error", client, err)
		}
		if snap := stats.Snapshot(); snap.Dials != 0 {
			t.Errorf("peer with codec %q dialled: %+v", client, snap)
		}
		return true
	}
	return false
}

// TestCodecNegotiationMatrix drives the Codec names older builds accepted
// against each other on both sides. Nothing is negotiated any more: a pair
// that both name the one format talks it, and a retired name is refused on
// the side that names it.
func TestCodecNegotiationMatrix(t *testing.T) {
	for _, tc := range []struct{ server, client string }{
		{"binary", "binary"},
		{"binary", "gob"},
		{"binary", "legacy"},
		{"gob", "binary"},
		{"gob", "gob"},
		{"gob", "legacy"},
	} {
		t.Run(tc.server+"/"+tc.client, func(t *testing.T) {
			src := timestamp.NewSimulated(1 << 30)
			n := wireNode(t, 1, src)
			if expectCodecRefused(t, n, tc.server, tc.client) {
				return
			}
			srv, err := ServeWith(n, "127.0.0.1:0", ServerOptions{Codec: tc.server})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			stats := &WireStats{}
			peer := NewTCPPeerWith(1, srv.Addr(), PeerOptions{Codec: tc.client, Stats: stats})
			defer peer.Close()
			if err := mailOne(peer, store.Entry{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1, Site: 2}}); err != nil {
				t.Fatal(err)
			}
			if _, ok := n.Lookup("k"); !ok {
				t.Fatal("mail not applied")
			}
			if snap := stats.Snapshot(); snap.Dials != 1 || snap.MsgsBinary != 1 {
				t.Errorf("wanted one dial carrying one message, stats = %+v", snap)
			}
		})
	}
}

// TestMixedCodecNodesConverge: both spellings of the one format, a peer
// still setting the ignored UDP option, and unequal store shard counts
// interoperate. Two nodes
// built that way converge through anti-entropy, each conversation
// narrowing at the smaller shard count.
func TestMixedCodecNodesConverge(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	mk := func(site timestamp.SiteID, shards int) *node.Node {
		n, err := node.New(node.Config{
			Site: site, Clock: src.ClockAt(site), StoreShards: shards, Seed: int64(site),
			Resolve: core.ResolveConfig{Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := mk(1, 16), mk(2, 64)
	srvA, err := ServeWith(a, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := ServeWith(b, "127.0.0.1:0", ServerOptions{Codec: "binary", DisableUDP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	statsA, statsB := &WireStats{}, &WireStats{}
	a.SetPeers([]node.Peer{NewTCPPeerWith(2, srvB.Addr(), PeerOptions{Codec: "binary", UDP: true, Stats: statsA})})
	b.SetPeers([]node.Peer{NewTCPPeerWith(1, srvA.Addr(), PeerOptions{Stats: statsB})})

	a.Update("from-a", store.Value("1"))
	b.Update("from-b", store.Value("2"))
	src.Advance(100) // outside the recent window: only a narrowed walk finds it
	for round := 0; round < 20 && !store.ContentEqual(a.Store(), b.Store()); round++ {
		if err := a.StepAntiEntropy(); err != nil {
			t.Fatal(err)
		}
		if err := b.StepAntiEntropy(); err != nil {
			t.Fatal(err)
		}
	}
	if !store.ContentEqual(a.Store(), b.Store()) {
		t.Fatal("mixed nodes never converged")
	}
	if snap := statsA.Snapshot(); snap.ShardVecDowngrades != 0 || snap.ShardVecExchanges == 0 {
		t.Errorf("16- vs 64-shard conversations should narrow at 16 buckets: %+v", snap)
	}
}

// TestUDPRumorPushServed sends rumor pushes from a peer built with the
// ignored UDP option to a real server and checks delivery, the feedback
// bits and the accounting: each push is one round trip on the pooled
// session and no datagram is sent.
func TestUDPRumorPushServed(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	n := wireNode(t, 2, src)
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stats := &WireStats{}
	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{UDP: true, Stats: stats})
	defer peer.Close()

	e := store.Entry{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1, Site: 1, Seq: 1}}
	needed, err := peer.PushRumors([]store.Entry{e}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(needed) != 1 || !needed[0] {
		t.Errorf("first push needed = %v, want [true]", needed)
	}
	if v, ok := n.Lookup("k"); !ok || string(v) != "v" {
		t.Fatalf("rumor not applied: %q %v", v, ok)
	}
	// A second push of the same entry is redundant: feedback must say so.
	needed, err = peer.PushRumors([]store.Entry{e}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(needed) != 1 || needed[0] {
		t.Errorf("redundant push needed = %v, want [false]", needed)
	}
	snap := stats.Snapshot()
	if snap.MsgsBinary != 2 || snap.Dials != 1 || snap.UDPBytesSent != 0 {
		t.Errorf("two pushes should be two round trips on one session: %+v", snap)
	}
}

// TestUDPOversizePushFallsBack pushes a payload far over what one datagram
// could carry: it is served as one pooled round trip like any other push.
func TestUDPOversizePushFallsBack(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	n := wireNode(t, 2, src)
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stats := &WireStats{}
	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{UDP: true, Stats: stats})
	defer peer.Close()

	big := store.Entry{Key: "big", Value: store.Value(make([]byte, 4096)), Stamp: timestamp.T{Time: 1, Site: 1}}
	if _, err := peer.PushRumors([]store.Entry{big}, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Lookup("big"); !ok {
		t.Fatal("oversize rumor not applied")
	}
	snap := stats.Snapshot()
	if snap.MsgsBinary != 1 || snap.Dials != 1 || snap.BytesSent <= 4096 || snap.UDPBytesSent != 0 {
		t.Errorf("oversize push should be one round trip on the session: %+v", snap)
	}
}

// TestServeBindsNoUDPSocket: a server listens on TCP only, whatever its
// DisableUDP says, so the same port is free for a datagram socket.
func TestServeBindsNoUDPSocket(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	for _, opts := range []ServerOptions{{}, {DisableUDP: true}} {
		srv, err := ServeWith(wireNode(t, 2, src), "127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		uaddr, err := net.ResolveUDPAddr("udp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		uc, err := net.ListenUDP("udp", uaddr)
		if err != nil {
			t.Errorf("%+v: the server holds a datagram socket on its port: %v", opts, err)
		} else {
			_ = uc.Close()
		}
		_ = srv.Close()
	}
}
