package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// conversationFrames are the anti-entropy frames outside the bucket walks:
// the opening vector exchange with digests piggybacked both ways, and a
// checksum carrier shipping a certificate a walk woke, answered with the
// peer's checksum and a certificate the carrier woke there in turn.
func conversationFrames() []goldenFrame {
	cert := store.Entry{Key: "gone", Stamp: timestamp.T{Time: 3, Site: 1}, Activation: timestamp.T{Time: 1 << 41, Site: 1}}
	return []goldenFrame{
		{
			req: request{Kind: reqShardVector, From: 1, Now: 1 << 41, Tau1: 1 << 40, ShardCount: 16,
				Digests: sampleDigests()},
			resp: response{Now: 1<<41 + 3, ShardCount: 4, Vector: []uint64{9, 0, ^uint64(0), 7},
				Digests: sampleDigests()[:1]},
		},
		{
			req: request{Kind: reqChecksum, From: 1, Now: 1 << 41, Tau1: 1 << 40, Entries: []store.Entry{cert}},
			resp: response{Needed: []bool{true}, Checksum: 11,
				Entries: []store.Entry{{Key: "zombie", Stamp: cert.Stamp, Activation: cert.Activation}}},
		},
	}
}

const (
	parityTau  = 50
	parityTau1 = 1000
)

func parityConfig() core.ResolveConfig {
	return core.ResolveConfig{
		Mode: core.PushPull, Strategy: core.CompareRecent,
		Tau: parityTau, Tau1: parityTau1, ReactivateDormant: true,
	}
}

// parityPair builds initiator a and responder b on one simulated clock,
// diverged at random by seed — one-sided keys, a newer write on either
// side, deletes, shared certificates, old and recent — plus the cases a
// recent-update window must get right: an equal-stamp certificate with a newer
// activation inside the window, one-sided entries exactly tau and tau-1 old
// at the conversation's clock, and a retained dormant certificate on one
// side facing the obsolete live value it deleted on the other (§2.2). Two
// calls with one seed build identical pairs. bShards sets b's shard count;
// a count other than a's makes the wire conversation fold its vector to
// the smaller one.
func parityPair(t *testing.T, seed int64, bShards int) (a, b *node.Node) {
	t.Helper()
	src := timestamp.NewSimulated(1 << 30)
	mk := func(site timestamp.SiteID, shards int) *node.Node {
		n, err := node.New(node.Config{
			Site: site, Clock: src.ClockAt(site), Resolve: parityConfig(), StoreShards: shards,
			Tau1: parityTau1, Tau2: 1 << 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b = mk(1, 0), mk(2, bShards)
	rng := rand.New(rand.NewSource(seed))
	side := func() (x, y *store.Store) {
		if rng.Intn(2) == 0 {
			return a.Store(), b.Store()
		}
		return b.Store(), a.Store()
	}
	val := func(s string) store.Value { return store.Value(s) }

	holder, stale := side()
	stale.Update("zombie", val("obsolete"))
	src.Advance(1)
	holder.Delete("zombie", []timestamp.SiteID{holder.Site()})
	src.Advance(parityTau1 + parityTau + 10) // dormant at the holder

	// write diverges one key at random; it advances the clock by at most 2.
	write := func(key string) {
		x, y := side()
		switch rng.Intn(5) {
		case 0: // held alike on both sides
			y.Apply(x.Update(key, val("same")))
		case 1: // one side only
			x.Update(key, val("only"))
		case 2: // a newer write on one side
			y.Update(key, val("old"))
			src.Advance(1)
			x.Update(key, val("new"))
		case 3: // deleted on one side after both held it
			y.Apply(x.Update(key, val("doomed")))
			src.Advance(1)
			x.Delete(key, nil)
		case 4: // the same certificate on both sides
			y.Apply(x.Update(key, val("doomed")))
			src.Advance(1)
			y.Apply(x.Delete(key, nil))
		}
		src.Advance(1)
	}
	for i := 0; i < 12; i++ {
		write(fmt.Sprintf("old%02d", i))
	}
	src.Advance(parityTau + 5)

	edge := src.Read()
	x, _ := side()
	x.Update("edge-out", val("e")) // exactly tau old at the conversation
	src.Advance(1)
	x, _ = side()
	x.Update("edge-in", val("e")) // tau-1 old: inside the window
	src.Advance(1)
	x, y := side()
	y.Apply(x.Delete("react", nil))
	src.Advance(2)
	x, _ = side()
	if _, ok := x.Reactivate("react"); !ok { // same stamp, newer activation
		t.Fatal("no certificate to reactivate")
	}
	src.Advance(1)
	for i := 0; i < 12; i++ {
		write(fmt.Sprintf("new%02d", i))
	}
	src.Set(edge + parityTau)
	return a, b
}

// appliedBySite is AppliedBySite with each site's keys sorted.
func appliedBySite(st core.ExchangeStats) map[timestamp.SiteID][]string {
	out := map[timestamp.SiteID][]string{}
	for site, keys := range st.AppliedBySite {
		out[site] = append([]string(nil), keys...)
		sort.Strings(out[site])
	}
	return out
}

// replicaState is a store's content plus activations: what two runs must
// agree on entry for entry.
func replicaState(s *store.Store) []string {
	var out []string
	for _, e := range s.Snapshot() {
		out = append(out, fmt.Sprintf("%s=%q dead=%v %v/%v", e.Key, e.Value, e.IsDeath(), e.Stamp, e.Activation))
	}
	return out
}

// TestSyncOfferParityLocalAndTCP: for random divergent pairs, a wire
// conversation (the bucket vector, then walks of the diverged buckets) and
// the in-process one (core's recent-update lists, then a full compare)
// leave identical replicas and report identical EntriesApplied and
// AppliedBySite — the wire's Needed bits account for every repair the peer
// applied, as core accounts for both stores. CompareShardVector in process
// runs the wire's own conversation, so it must match the wire in every
// count as well.
func TestSyncOfferParityLocalAndTCP(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		bShards := 0
		if seed%3 == 0 {
			bShards = 2 * store.DefaultShards
		}
		t.Run(fmt.Sprintf("seed%d-shards%d", seed, bShards), func(t *testing.T) {
			la, lb := parityPair(t, seed, bShards)
			want, err := node.NewLocalPeer(lb, 1).AntiEntropy(parityConfig(), la.Store(), nil)
			if err != nil {
				t.Fatal(err)
			}

			ta, tb := parityPair(t, seed, bShards)
			srv, err := Serve(tb, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			peer := NewTCPPeer(2, srv.Addr())
			defer peer.Close()
			got, err := peer.AntiEntropy(parityConfig(), ta.Store(), nil)
			if err != nil {
				t.Fatal(err)
			}

			va, vb := parityPair(t, seed, bShards)
			vecCfg := parityConfig()
			vecCfg.Strategy = core.CompareShardVector
			vec, err := node.NewLocalPeer(vb, 1).AntiEntropy(vecCfg, va.Store(), nil)
			if err != nil {
				t.Fatal(err)
			}
			type counts struct {
				Sent, Received, Applied, Compared, Shards int
				Full                                      bool
				BySite                                    map[timestamp.SiteID][]string
			}
			countsOf := func(st core.ExchangeStats) counts {
				return counts{st.EntriesSent, st.EntriesReceived, st.EntriesApplied, st.ChecksumsCompared,
					st.ShardsRepaired, st.FullCompare, appliedBySite(st)}
			}
			if g, v := countsOf(got), countsOf(vec); !reflect.DeepEqual(g, v) {
				t.Errorf("over TCP %+v, shard vector in process %+v", g, v)
			}

			for name, s := range map[string]*store.Store{
				"local a": la.Store(), "tcp a": ta.Store(), "tcp b": tb.Store(), "vector a": va.Store(), "vector b": vb.Store(),
			} {
				if !reflect.DeepEqual(replicaState(s), replicaState(lb.Store())) {
					t.Errorf("%s differs from local b:\n%v\n%v", name, replicaState(s), replicaState(lb.Store()))
				}
			}
			if _, ok := tb.Lookup("zombie"); ok {
				t.Error("the obsolete item survived the wire conversation")
			}
			if got.EntriesApplied != want.EntriesApplied {
				t.Errorf("EntriesApplied over TCP = %d, in process = %d", got.EntriesApplied, want.EntriesApplied)
			}
			if g, w := appliedBySite(got), appliedBySite(want); !reflect.DeepEqual(g, w) {
				t.Errorf("AppliedBySite over TCP:\n%v\nin process:\n%v", g, w)
			}
			// AppliedKeys lists the initiator's own repairs, never the ones
			// it shipped to the peer.
			keys := append([]string(nil), got.AppliedKeys...)
			sort.Strings(keys)
			if own := appliedBySite(got)[ta.Site()]; !reflect.DeepEqual(keys, own) {
				t.Errorf("AppliedKeys over TCP = %v, want the initiator's applied keys %v", keys, own)
			}
		})
	}
}

// servedPair is two nodes on one simulated clock, each served over TCP,
// with the §2.2 knobs on.
func servedPair(t *testing.T) (src *timestamp.Simulated, nodes [2]*node.Node, addrs [2]string) {
	t.Helper()
	src = timestamp.NewSimulated(1 << 30)
	for i := range nodes {
		n, err := node.New(node.Config{
			Site: timestamp.SiteID(i + 1), Clock: src.ClockAt(timestamp.SiteID(i + 1)),
			Resolve: parityConfig(), Tau1: parityTau1, Tau2: 1 << 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Serve(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		nodes[i], addrs[i] = n, srv.Addr()
	}
	return src, nodes, addrs
}

// TestTCPReactivatesDormantCertificate: A holds a retained dormant
// certificate for k and B still holds the live value it deleted. One wire
// conversation, in either direction, must wake the certificate (§2.2) and
// leave both sides holding it — stamp unchanged, activation advanced — with
// k gone from both.
func TestTCPReactivatesDormantCertificate(t *testing.T) {
	for _, aInitiates := range []bool{true, false} {
		t.Run(fmt.Sprintf("a-initiates=%v", aInitiates), func(t *testing.T) {
			src, nodes, addrs := servedPair(t)
			a, b := nodes[0], nodes[1]
			b.Store().Update("k", store.Value("obsolete"))
			src.Advance(1)
			cert := a.Store().Delete("k", []timestamp.SiteID{a.Site()})
			src.Advance(parityTau1 + 10)

			initiator, responder, addr := a, b, addrs[1]
			if !aInitiates {
				initiator, responder, addr = b, a, addrs[0]
			}
			peer := NewTCPPeer(responder.Site(), addr)
			defer peer.Close()
			st, err := peer.AntiEntropy(parityConfig(), initiator.Store(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				got, ok := n.Store().Get("k")
				if !ok || !got.IsDeath() || got.Stamp != cert.Stamp || !cert.Activation.Less(got.Activation) {
					t.Errorf("site %d holds %+v, want the certificate stamped %v with a newer activation than %v",
						n.Site(), got, cert.Stamp, cert.Activation)
				}
				if _, ok := n.Lookup("k"); ok {
					t.Errorf("site %d still serves k", n.Site())
				}
			}
			if aInitiates && !reflect.DeepEqual(st.Reactivated, []string{"k"}) {
				t.Errorf("Reactivated = %v, want [k]", st.Reactivated)
			}
		})
	}
}

// TestSyncOfferShipsOnlyWhatDiffers: a conversation between replicas that
// share a recent history opens with the bucket vector, not with that
// history. In sync it is one round trip with no entry either way;
// otherwise only the diverged buckets are walked, each in one round trip
// carrying at most one probe batch each way, and exactly the entries the
// other side lacks are applied.
func TestSyncOfferShipsOnlyWhatDiffers(t *testing.T) {
	src, nodes, addrs := servedPair(t)
	a, b := nodes[0], nodes[1]
	for i := 0; i < 40; i++ {
		b.Store().Apply(a.Store().Update(fmt.Sprintf("k%02d", i), store.Value("v")))
		src.Advance(1)
	}
	stats := &WireStats{}
	peer := NewTCPPeerWith(2, addrs[1], PeerOptions{Stats: stats})
	defer peer.Close()

	st, err := peer.AntiEntropy(parityConfig(), a.Store(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesSent != 0 || st.EntriesReceived != 0 || st.FullCompare {
		t.Errorf("in-sync conversation moved %d + %d entries (full compare %v), want none", st.EntriesSent, st.EntriesReceived, st.FullCompare)
	}
	if msgs := stats.Snapshot().MsgsBinary; msgs != 1 {
		t.Errorf("in-sync conversation took %d round trips, want 1", msgs)
	}

	for i := 0; i < 3; i++ {
		a.Store().Update(fmt.Sprintf("only-a%d", i), store.Value("a"))
	}
	for i := 0; i < 2; i++ {
		b.Store().Update(fmt.Sprintf("only-b%d", i), store.Value("b"))
	}
	st, err = peer.AntiEntropy(parityConfig(), a.Store(), nil)
	if err != nil {
		t.Fatal(err)
	}
	buckets := st.ShardsRepaired
	if buckets < 1 || buckets > 5 || st.FullCompare {
		t.Fatalf("walked %d buckets (full compare %v), want 1 to 5 for 5 diverged keys", buckets, st.FullCompare)
	}
	if st.EntriesApplied != 5 {
		t.Errorf("applied %d entries, want 5", st.EntriesApplied)
	}
	if limit := core.ProbeBatch * buckets; st.EntriesSent > limit || st.EntriesReceived > limit {
		t.Errorf("sent/received %d/%d entries, want at most one %d-entry probe batch each way per bucket (%d)",
			st.EntriesSent, st.EntriesReceived, core.ProbeBatch, limit)
	}
	if trips := stats.Snapshot().MsgsBinary - 1; trips != int64(1+buckets) {
		t.Errorf("took %d round trips, want the vector and one walk round per diverged bucket (%d)", trips, 1+buckets)
	}
	if !store.ContentEqual(a.Store(), b.Store()) {
		t.Error("replicas differ after the conversation")
	}
}

// TestRetiredSyncKindIsRefused: retired request kinds get the unknown-kind
// error and change nothing. Kind 1 carried one mailed entry per round trip;
// every mail now rides a mail batch. Kind 4 carried round 0 as full
// entries, which a server applied; a value-less id read that way is a death
// certificate. Kind 7 carried a batch of the whole-store peel walk, which
// a server applied; that walk is now bucket 0 of 1 on reqPeelBackShard.
// Kind 11 offered the ids of the recent-update window; the bucket vector
// opens every conversation now.
func TestRetiredSyncKindIsRefused(t *testing.T) {
	src, nodes, addrs := servedPair(t)
	n := nodes[0]
	live := n.Store().Update("k", store.Value("v"))
	src.Advance(1)
	newer := timestamp.T{Time: src.Read(), Site: 2, Seq: 1}

	peer := NewTCPPeer(1, addrs[0])
	defer peer.Close()
	for _, req := range []request{
		{Kind: 1, From: 2, Entries: []store.Entry{{Key: "k", Value: store.Value("mailed"), Stamp: newer, Activation: newer}}},
		{Kind: 4, From: 2, Now: src.Read(), Tau1: parityTau1,
			Entries: []store.Entry{{Key: "k", Stamp: newer, Activation: newer}}},
		{Kind: 7, From: 2, Now: src.Read(), Tau1: parityTau1, Bound: store.PeelStart, Limit: 16,
			Entries: []store.Entry{{Key: "k", Value: store.Value("peeled"), Stamp: newer, Activation: newer}}},
		{Kind: 11, From: 2, Now: src.Read(), Tau1: parityTau1,
			Entries: []store.Entry{{Key: "k", Stamp: newer, Activation: newer}}},
	} {
		c := getWireCall()
		c.req = req
		err := peer.call(c)
		putWireCall(c)
		want := fmt.Sprintf("unknown request kind %d", req.Kind)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("kind %d: err = %v, want %q", req.Kind, err, want)
		}
		if got, ok := n.Store().Get("k"); !ok || !got.Equal(live) {
			t.Errorf("kind %d changed k to %+v", req.Kind, got)
		}
	}
}
