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
	clientDir.Merge([]cluster.Digest{{Site: 3, Stamp: 50}})

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
