package transport

import (
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"epidemic/internal/node"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// outboxNode builds a started node — its outbox drains on worker
// goroutines — with a short flush budget, serving gossip on an ephemeral
// port.
func outboxNode(t *testing.T, site timestamp.SiteID, src *timestamp.Simulated) (*node.Node, *Server) {
	t.Helper()
	n, err := node.New(node.Config{
		Site:               site,
		Clock:              src.ClockAt(site),
		Seed:               int64(site),
		DirectMailOnUpdate: true,
		Outbox:             node.OutboxConfig{Workers: 4, FlushTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return n, srv
}

// TestMailBatchOverTCP drives a multi-entry outbox drain through the
// batched frame: a whole drain ships as one reqMailBatch.
func TestMailBatchOverTCP(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	a, _ := outboxNode(t, 1, src)
	b, sb := outboxNode(t, 2, src)

	ws := &WireStats{}
	peer := NewTCPPeerWith(2, sb.Addr(), PeerOptions{Stats: ws})
	a.SetPeers([]node.Peer{peer})

	// First round dials the session.
	a.Update("prime", store.Value("v"))
	if !a.FlushMail(0) {
		t.Fatal("priming flush timed out")
	}
	// Second round: several keys drain as one batched frame.
	for i := 0; i < 5; i++ {
		a.Update(fmt.Sprintf("k%d", i), store.Value("v"))
	}
	if !a.FlushMail(0) {
		t.Fatal("batch flush timed out")
	}

	for i := 0; i < 5; i++ {
		if _, ok := b.Lookup(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d never arrived", i)
		}
	}
	snap := ws.Snapshot()
	if snap.MailBatches == 0 {
		t.Error("no batched mail frames on the session")
	}
	if snap.MailBatchEntries == 0 {
		t.Error("batched frames carried no entries")
	}
	if s := b.Stats(); s.MailBatchesReceived == 0 {
		t.Error("receiver never counted a mail batch")
	}
}

// TestMailBatchMixedCodecConvergence ships one update set from a sender to
// a receiver through peers built with each Codec name older builds
// accepted. The one format delivers every key in batched frames; a retired
// name fails the batch outright, where it once fell back to per-entry mail
// in an older format.
func TestMailBatchMixedCodecConvergence(t *testing.T) {
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for _, peerCodec := range []string{"binary", "binary-v4", "gob", "legacy"} {
		t.Run(peerCodec, func(t *testing.T) {
			src := timestamp.NewSimulated(1 << 30)
			a, _ := outboxNode(t, 1, src)
			b, sb := outboxNode(t, 2, src)

			ws := &WireStats{}
			peer := NewTCPPeerWith(2, sb.Addr(), PeerOptions{Stats: ws, Codec: peerCodec})
			if !codecAccepted(peerCodec) {
				err := peer.MailBatch(node.MailBatch{Entries: []store.Entry{a.Update("k", store.Value("v"))}})
				if err == nil || !strings.Contains(err.Error(), "unknown codec") {
					t.Fatalf("MailBatch with codec %q: err = %v, want an unknown-codec error", peerCodec, err)
				}
				if snap := ws.Snapshot(); snap.Dials != 0 || snap.MailBatches != 0 {
					t.Errorf("refused peer touched the wire: %+v", snap)
				}
				if _, ok := b.Lookup("k"); ok {
					t.Error("a refused batch reached the receiver")
				}
				return
			}
			a.SetPeers([]node.Peer{peer})
			for _, k := range keys {
				a.Update(k, store.Value("v-"+k))
			}
			if !a.FlushMail(0) {
				t.Fatal("flush timed out")
			}

			got := b.Store().Keys()
			sort.Strings(got)
			want := append([]string(nil), keys...)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("receiver keys = %v, want %v", got, want)
			}
			if snap := ws.Snapshot(); snap.MailBatches == 0 || snap.MailBatchEntries != int64(len(keys)) {
				t.Errorf("wire shows %d batches / %d entries, want batched frames carrying %d",
					snap.MailBatches, snap.MailBatchEntries, len(keys))
			}
		})
	}
}

// TestSlowPeerDoesNotDelayUpdateOrHealthyPeers is the isolation guarantee
// behind the engine: a blackholed peer (accepts, never reads) must neither
// stretch Update's return nor starve delivery to healthy peers.
func TestSlowPeerDoesNotDelayUpdateOrHealthyPeers(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	a, _ := outboxNode(t, 1, src)
	b, sb := outboxNode(t, 2, src)

	// The blackhole: a listener that accepts connections and then ignores
	// them, the worst kind of slow peer — TCP connects fine, every request
	// hangs until the client deadline.
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	go func() {
		for {
			conn, err := hole.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, read nothing
		}
	}()

	healthy := NewTCPPeer(2, sb.Addr())
	stalled := NewTCPPeerWith(3, hole.Addr().String(), PeerOptions{Timeout: 500 * time.Millisecond})
	a.SetPeers([]node.Peer{healthy, stalled})

	start := time.Now()
	a.Update("k", store.Value("v"))
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Fatalf("Update took %v with a stalled peer; must return after an enqueue", took)
	}

	// The healthy peer must receive the update long before the stalled
	// peer's request deadline would even fire.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := b.Lookup("k"); ok && string(v) == "v" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthy peer starved behind the stalled one")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Site 3's batch is still pending or failing in the background; that
	// is the outbox's problem, not Update's. Flush generously so Stop's
	// own flush does not race the assertion window.
	a.FlushMail(3 * time.Second)
}
