package transport

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/obs/cluster"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

func sampleDigests() []cluster.Digest {
	return []cluster.Digest{
		{
			Site: 1, Stamp: 1000, StartedAt: 10,
			StoreKeys: 42, Checksum: 0xdeadbeefcafef00d,
			HotRumors: 3, Peers: 2, Members: 5,
			AERuns: 100, RumorRuns: 200,
			WireMsgsBinary: 17,
			Residue:        0.25, TLastSeconds: 1.5, LastAE: 950,
			AntiEntropy: cluster.LatencySummary{Count: 100, P50: 0.012, P99: 0.3},
			Rumor:       cluster.LatencySummary{Count: 200, P50: 0.004, P99: 0.05},
		},
		{Site: 2, Stamp: 900}, // mostly-zero digest must survive too
	}
}

// TestDigestCodecRoundTrip proves the trailing digest section encodes and
// decodes exactly, and that an empty one costs a single byte.
func TestDigestCodecRoundTrip(t *testing.T) {
	digests := sampleDigests()
	req := request{Kind: reqShardVector, From: 1, ShardCount: 16, Digests: digests}
	var gotReq request
	if err := decodeRequest(appendRequest(nil, &req), &gotReq); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotReq.Digests, digests) {
		t.Errorf("request digests = %+v", gotReq.Digests)
	}

	resp := response{Checksum: 9, Digests: digests}
	var gotResp response
	if err := decodeResponse(appendResponse(nil, &resp), &gotResp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotResp.Digests, digests) {
		t.Errorf("response digests = %+v", gotResp.Digests)
	}

	if got := appendDigests(nil, nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("empty digest section = % x, want one zero byte", got)
	}
	if got := appendDigests(nil, []cluster.Digest{{}}); len(got) != 1+digestMinWire {
		t.Errorf("zero digest = %d bytes, want count byte + digestMinWire %d", len(got), digestMinWire)
	}
}

// TestDigestSectionTruncation checks the decoder latches a typed error on
// every truncation point of the digest section.
func TestDigestSectionTruncation(t *testing.T) {
	req := request{Kind: reqShardVector, ShardCount: 16, Digests: sampleDigests()}
	payload := appendRequest(nil, &req)
	var got request
	for n := len(payload) - 1; n >= 0; n-- {
		if err := decodeRequest(payload[:n], &got); err == nil {
			t.Fatalf("truncated payload at %d bytes decoded cleanly", n)
		}
	}
}

// TestDigestNegotiationDowngrade: there is no downgrade any more. A server
// handed a v3 hello answers with the one wire version and refuses the
// session, and digests cross a session at that version intact.
func TestDigestNegotiationDowngrade(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() { done <- newSession(server, 0).serverHandshake() }()
	if _, err := client.Write([]byte{'E', 'P', 'G', 3}); err != nil {
		t.Fatal(err)
	}
	var answer [1]byte
	if _, err := client.Read(answer[:]); err != nil || answer[0] != wireVersion {
		t.Fatalf("answer to a v3 hello = %v %v, want %d", answer, err, wireVersion)
	}
	if err := <-done; !errors.Is(err, ErrFrameGarbage) {
		t.Fatalf("server accepted a v3 hello: %v", err)
	}

	client, server = net.Pipe()
	defer client.Close()
	defer server.Close()
	cs, ss := newSession(client, 0), newSession(server, 0)
	go func() { done <- ss.serverHandshake() }()
	if err := cs.clientHandshake(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	req := request{Kind: reqChecksum, Tau1: 5, Digests: sampleDigests()}
	go func() { done <- cs.writeRequest(&req) }()
	var got request
	if err := ss.readRequest(&got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got.Kind != reqChecksum || got.Tau1 != 5 || !reflect.DeepEqual(got.Digests, req.Digests) {
		t.Errorf("request corrupted on the session: %+v", got)
	}
}

// TestDigestPiggybackOverTCP is the end-to-end wire property: two nodes
// with digest directories exchange views through ordinary anti-entropy and
// rumor-offer calls, no dedicated digest requests.
func TestDigestPiggybackOverTCP(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)

	serverDir := cluster.NewDirectory(1, 0)
	serverDir.SetSelf(cluster.Digest{Stamp: 100, StoreKeys: 11})
	serverNode, err := node.New(node.Config{
		Site:  1,
		Clock: src.ClockAt(1),
		Rumor: core.RumorConfig{K: 3, Counter: true, Mode: core.PushPull},
		Resolve: core.ResolveConfig{
			Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1 << 40,
		},
		Digests: serverDir,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(serverNode, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clientDir := cluster.NewDirectory(2, 0)
	clientDir.SetSelf(cluster.Digest{Stamp: 200, StoreKeys: 22})
	// A third site's digest must relay through the exchange too.
	clientDir.Merge(3, []cluster.Digest{{Site: 3, Stamp: 50}})

	peer := NewTCPPeerWith(1, srv.Addr(), PeerOptions{Digests: clientDir})
	defer peer.Close()

	clientNode := wireNode(t, 2, src)
	cfg := core.ResolveConfig{Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1 << 40}
	if _, err := peer.AntiEntropy(cfg, clientNode.Store(), nil); err != nil {
		t.Fatal(err)
	}

	if dg, ok := serverDir.Get(2); !ok || dg.Stamp != 200 || dg.StoreKeys != 22 {
		t.Errorf("server view of site 2 = %+v ok=%v", dg, ok)
	}
	if dg, ok := serverDir.Get(3); !ok || dg.Stamp != 50 {
		t.Errorf("server missed relayed site 3 digest: %+v ok=%v", dg, ok)
	}
	if dg, ok := clientDir.Get(1); !ok || dg.Stamp != 100 || dg.StoreKeys != 11 {
		t.Errorf("client view of site 1 = %+v ok=%v", dg, ok)
	}

	// Freshen the server's digest; a rumor offer must carry the update.
	serverDir.SetSelf(cluster.Digest{Stamp: 300, StoreKeys: 12})
	if _, _, _, err := peer.OfferRumors(nil); err != nil {
		t.Fatal(err)
	}
	if dg, _ := clientDir.Get(1); dg.Stamp != 300 {
		t.Errorf("rumor offer did not refresh site 1 digest: %+v", dg)
	}
}

// TestDigestsDisabledZeroOverhead: with no directories configured, the
// request and response carry nil digest slices and conversations work
// exactly as before.
func TestDigestsDisabledZeroOverhead(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	n := wireNode(t, 1, src)
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	peer := NewTCPPeer(1, srv.Addr())
	defer peer.Close()
	clientNode := wireNode(t, 2, src)
	cfg := core.ResolveConfig{Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1 << 40}
	if _, err := peer.AntiEntropy(cfg, clientNode.Store(), nil); err != nil {
		t.Fatal(err)
	}
	if n.Digests().Len() != 0 {
		t.Error("digests materialised with the observatory off")
	}
}

// digestServer serves a fresh node for site 1 whose directory reports the
// given start time, on addr ("127.0.0.1:0" for an ephemeral port).
func digestServer(t *testing.T, src *timestamp.Simulated, addr string, startedAt int64) (*cluster.Directory, *Server) {
	t.Helper()
	dir := cluster.NewDirectory(1, 0)
	dir.SetSelf(cluster.Digest{Stamp: startedAt + 1, StartedAt: startedAt})
	n, err := node.New(node.Config{Site: 1, Clock: src.ClockAt(1), Digests: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(n, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return dir, srv
}

// TestDigestPiggybackAfterRestart is TestDigestPiggybackOverTCP's sibling
// for the per-peer delta: an in-sync pair swaps empty digest sections, and
// a replica that restarts — its StartedAt changes — gets the full view
// again on its next conversation, whichever side of it restarted.
func TestDigestPiggybackAfterRestart(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	_, srv := digestServer(t, src, "127.0.0.1:0", 10)
	addr := srv.Addr()

	clientDir := cluster.NewDirectory(2, 0)
	clientDir.SetSelf(cluster.Digest{Stamp: 200, StartedAt: 5})
	clientDir.Merge(3, []cluster.Digest{{Site: 3, Stamp: 50, StartedAt: 3}})
	stats := &WireStats{}
	peer := NewTCPPeerWith(1, addr, PeerOptions{Digests: clientDir, Stats: stats})
	defer peer.Close()
	offer := func() WireSnapshot {
		t.Helper()
		before := stats.Snapshot()
		if _, _, _, err := peer.OfferRumors(nil); err != nil {
			t.Fatal(err)
		}
		after := stats.Snapshot()
		return WireSnapshot{
			DigestBytesSent:     after.DigestBytesSent - before.DigestBytesSent,
			DigestBytesReceived: after.DigestBytesReceived - before.DigestBytesReceived,
		}
	}
	offer()
	// In sync: both sections are the empty one-byte count.
	if d := offer(); d.DigestBytesSent != 1 || d.DigestBytesReceived != 1 {
		t.Fatalf("in-sync offer moved %d/%d digest bytes, want the empty section each way", d.DigestBytesSent, d.DigestBytesReceived)
	}

	// The server restarts on the same address with an empty view. The
	// first conversation learns of the restart from the reply; the next
	// carries the client's whole view.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	restarted, _ := digestServer(t, src, addr, 100)
	offer()
	if dg, ok := clientDir.Get(1); !ok || dg.StartedAt != 100 {
		t.Fatalf("client view of the restarted server = %+v ok=%v", dg, ok)
	}
	offer()
	for _, site := range []int32{2, 3} {
		if _, ok := restarted.Get(site); !ok {
			t.Errorf("restarted server lacks site %d after its next conversation", site)
		}
	}

	// The client restarts: its request shows the new StartedAt, so the
	// server answers it with the full view in the same conversation.
	rebornDir := cluster.NewDirectory(2, 0)
	rebornDir.SetSelf(cluster.Digest{Stamp: 300, StartedAt: 250})
	reborn := NewTCPPeerWith(1, addr, PeerOptions{Digests: rebornDir})
	defer reborn.Close()
	if _, _, _, err := reborn.OfferRumors(nil); err != nil {
		t.Fatal(err)
	}
	if dg, ok := rebornDir.Get(3); !ok || dg.Stamp != 50 {
		t.Errorf("restarted client's view of site 3 = %+v ok=%v, want the relayed digest", dg, ok)
	}
}

// TestDigestFailedRoundTripMarksNothing: a conversation opener whose round
// trip fails marks none of its digests delivered, even when the peer read
// the request, so they go out again on the next conversation. It also
// checks that an offer's From names the caller's site.
func TestDigestFailedRoundTripMarksNothing(t *testing.T) {
	froms := make(chan timestamp.SiteID, 4)
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		sess := newSession(conn, 0)
		if sess.serverHandshake() != nil {
			return
		}
		var req request
		for sess.readRequest(&req) == nil {
			froms <- req.From
			if sess.writeResponse(&response{Err: "refused"}) != nil {
				return
			}
		}
	})
	dir := cluster.NewDirectory(2, 0)
	dir.SetSelf(cluster.Digest{Stamp: 200, StartedAt: 5})
	peer := NewTCPPeerWith(1, addr, PeerOptions{Digests: dir, Timeout: time.Second})
	defer peer.Close()

	if _, _, _, err := peer.OfferRumors(nil); err == nil {
		t.Fatal("offer to a refusing peer succeeded")
	}
	if from := <-froms; from != 2 {
		t.Errorf("offer From = %d, want the caller's site 2", from)
	}
	if got := dir.ShareTo(1); len(got) != 1 {
		t.Fatalf("failed offer marked its digests delivered: ShareTo = %+v", got)
	}
	cfg := core.ResolveConfig{Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1 << 40}
	if _, err := peer.AntiEntropy(cfg, store.New(2, timestamp.NewSimulated(1).ClockAt(2)), nil); err == nil {
		t.Fatal("anti-entropy with a refusing peer succeeded")
	}
	if got := dir.ShareTo(1); len(got) != 1 {
		t.Fatalf("failed vector request marked its digests delivered: ShareTo = %+v", got)
	}

	// A dead address fails before any byte crosses; nothing is marked.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	gone := NewTCPPeerWith(4, dead, PeerOptions{Digests: dir, Timeout: time.Second})
	defer gone.Close()
	if _, _, _, err := gone.OfferRumors(nil); err == nil {
		t.Fatal("offer to a dead address succeeded")
	}
	if got := dir.ShareTo(4); len(got) != 1 {
		t.Fatalf("unreachable peer marked delivered: ShareTo = %+v", got)
	}
}

// TestDigestByteCounters: on a scripted exchange the wire stats' digest
// counters equal the encoded digest sections of the frames sent and
// received, and never exceed the framed byte totals.
func TestDigestByteCounters(t *testing.T) {
	for _, ds := range [][]cluster.Digest{nil, sampleDigests(), {{Site: 1 << 30, Stamp: -1, StartedAt: -1 << 62, LastAE: 1 << 62}}} {
		if got, want := digestSectionLen(ds), len(appendDigests(nil, ds)); got != want {
			t.Errorf("digestSectionLen(%d digests) = %d, encoded %d", len(ds), got, want)
		}
	}

	src := timestamp.NewSimulated(1 << 30)
	serverDir, srv := digestServer(t, src, "127.0.0.1:0", 10)
	clientDir := cluster.NewDirectory(2, 0)
	clientDir.SetSelf(sampleDigests()[0])
	clientDir.Merge(3, []cluster.Digest{{Site: 3, Stamp: 50}})
	stats := &WireStats{}
	peer := NewTCPPeerWith(1, srv.Addr(), PeerOptions{Digests: clientDir, Stats: stats})
	defer peer.Close()

	// Script: an offer that carries both views, an anti-entropy
	// conversation with nothing new, a refreshed server digest on the next
	// offer, and a mail batch (no digests, one count byte each way).
	var wantOut, wantIn int
	sent, back := clientDir.ShareTo(1), serverDir.ShareTo(2)
	if _, _, _, err := peer.OfferRumors(nil); err != nil {
		t.Fatal(err)
	}
	wantOut += len(appendDigests(nil, sent))
	wantIn += len(appendDigests(nil, back))
	cfg := core.ResolveConfig{Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1 << 40}
	if _, err := peer.AntiEntropy(cfg, wireNode(t, 2, src).Store(), nil); err != nil {
		t.Fatal(err)
	}
	wantOut, wantIn = wantOut+1, wantIn+1
	serverDir.SetSelf(cluster.Digest{Stamp: 500, StartedAt: 10, StoreKeys: 3})
	refreshed, _ := serverDir.Get(1)
	if _, _, _, err := peer.OfferRumors(nil); err != nil {
		t.Fatal(err)
	}
	wantOut += 1
	wantIn += len(appendDigests(nil, []cluster.Digest{refreshed}))
	if err := mailOne(peer, store.Entry{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1, Site: 2}}); err != nil {
		t.Fatal(err)
	}
	wantOut, wantIn = wantOut+1, wantIn+1

	snap := stats.Snapshot()
	if snap.DigestBytesSent != int64(wantOut) || snap.DigestBytesReceived != int64(wantIn) {
		t.Errorf("digest bytes = %d sent / %d received, want %d / %d",
			snap.DigestBytesSent, snap.DigestBytesReceived, wantOut, wantIn)
	}
	if snap.DigestBytesSent > snap.BytesSent || snap.DigestBytesReceived > snap.BytesReceived {
		t.Errorf("digest bytes exceed framed bytes: %+v", snap)
	}
}
