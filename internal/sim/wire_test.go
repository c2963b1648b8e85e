package sim

import (
	"fmt"
	"testing"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/obs/cluster"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
	"epidemic/internal/transport"
)

// TestMixedTCPClusterConverges stands up a small cluster over the real TCP
// transport with deliberately mismatched configurations — one site whose
// store runs more shards than everyone else's, cluster digests riding
// every exchange — and drives rumor and anti-entropy rounds until every replica
// agrees. On top of the converged cluster, an aged divergence must be
// repaired on the shard-vector path both between equal-shard peers and
// against the odd site, which narrows at the smaller shard count.
func TestMixedTCPClusterConverges(t *testing.T) {
	src := timestamp.NewSimulated(1 << 20)

	type site struct {
		n   *node.Node
		srv *transport.Server
	}
	// Store shard counts per site: 0 is the default (16).
	shardCounts := []int{0, 0, 0, 0, 64}

	sites := make([]*site, len(shardCounts))
	for i, shards := range shardCounts {
		id := timestamp.SiteID(i + 1)
		n, err := node.New(node.Config{
			Site:        id,
			Clock:       src.ClockAt(id),
			Rumor:       core.RumorConfig{K: 2, Counter: true, Feedback: true, Mode: core.Push},
			StoreShards: shards,
			Digests:     cluster.NewDirectory(int32(id), 0),
			Seed:        int64(i) + 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Digests().SetSelf(cluster.Digest{Stamp: 1})
		srv, err := transport.Serve(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		sites[i] = &site{n: n, srv: srv}
	}

	stats := &transport.WireStats{}
	for i, s := range sites {
		var peers []node.Peer
		for j, target := range sites {
			if j == i {
				continue
			}
			p := transport.NewTCPPeerWith(target.n.Site(), target.srv.Addr(), transport.PeerOptions{
				Timeout: 2 * time.Second,
				Stats:   stats,
				Digests: s.n.Digests(),
			})
			defer p.Close()
			peers = append(peers, p)
		}
		s.n.SetPeers(peers)
	}

	// Seed a distinct update at every site, then gossip.
	for i, s := range sites {
		s.n.Update(fmt.Sprintf("k%d", i), store.Value(fmt.Sprintf("v%d", i)))
	}

	consistent := func() bool {
		first := sites[0].n.Store()
		for _, s := range sites[1:] {
			if !store.ContentEqual(first, s.n.Store()) {
				return false
			}
		}
		return true
	}

	for round := 0; round < 40 && !consistent(); round++ {
		for _, s := range sites {
			_ = s.n.StepRumor()
			if err := s.n.StepAntiEntropy(); err != nil {
				t.Fatalf("anti-entropy from site %d: %v", s.n.Site(), err)
			}
		}
		src.Advance(1)
	}
	if !consistent() {
		t.Fatal("mixed TCP cluster never converged")
	}
	if snap := stats.Snapshot(); snap.MsgsBinary == 0 {
		t.Error("no TCP round trips counted")
	}
	if got := sites[0].n.Digests().Len(); got < 2 {
		t.Errorf("site 1's digest view holds %d sites: no digest crossed the wire", got)
	}

	// Deterministic shard-vector exercise on top of the converged cluster:
	// a conversation between equal shard counts and one against the
	// 64-shard site must both complete on the narrow path, with no
	// downgrade, and converge.
	ex := &transport.WireStats{}
	exercise := func(target *site) {
		t.Helper()
		sites[0].n.Update(fmt.Sprintf("late-%d", target.n.Site()), store.Value("zz"))
		src.Advance(500)
		p := transport.NewTCPPeerWith(target.n.Site(), target.srv.Addr(),
			transport.PeerOptions{Timeout: 2 * time.Second, Stats: ex})
		defer p.Close()
		if _, err := p.AntiEntropy(core.ResolveConfig{
			Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1,
		}, sites[0].n.Store(), nil); err != nil {
			t.Fatalf("anti-entropy to site %d: %v", target.n.Site(), err)
		}
		if !store.ContentEqual(sites[0].n.Store(), target.n.Store()) {
			t.Fatalf("site %d differs after shard-vector exercise", target.n.Site())
		}
	}
	exercise(sites[2])
	exercise(sites[4])
	if snap := ex.Snapshot(); snap.ShardVecExchanges != 2 || snap.ShardVecShards < 2 || snap.ShardVecDowngrades != 0 {
		t.Errorf("want both exercises narrowed with no downgrade: %+v", snap)
	}
}
