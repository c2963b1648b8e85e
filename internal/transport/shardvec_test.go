package transport

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// shardVecScenario is one divergence layout: a shared history plus entries
// private to each side, scattered across shards by the key hash.
type shardVecScenario struct {
	shared, localOnly, remoteOnly int
	seed                          int64
}

// buildShardVecPair constructs a served remote node plus a local store with
// the scenario's divergence. It returns the expected key sets each side is
// missing: exactly what a correct repair must apply on each side.
func buildShardVecPair(t *testing.T, sc shardVecScenario, localShards, remoteShards int) (*store.Store, *node.Node, *Server, map[string]bool, map[string]bool) {
	t.Helper()
	src := timestamp.NewSimulated(1 << 30)
	remote, err := node.New(node.Config{Site: 2, Clock: src.ClockAt(2), StoreShards: remoteShards})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	local := store.NewSharded(1, src.ClockAt(1), localShards)

	rng := rand.New(rand.NewSource(sc.seed))
	localMissing := map[string]bool{}  // keys local must receive
	remoteMissing := map[string]bool{} // keys remote must receive
	n := sc.shared + sc.localOnly + sc.remoteOnly
	for i := 0; i < n; i++ {
		// The random prefix scatters keys across shards; the index suffix
		// keeps every key unique so the expected sets are exact.
		key := fmt.Sprintf("pk%05d-%04d", rng.Intn(1<<20), i)
		switch {
		case i < sc.shared:
			e := local.Update(key, store.Value("v"))
			remote.Store().Apply(e)
		case i < sc.shared+sc.localOnly:
			local.Update(key, store.Value("mine"))
			remoteMissing[key] = true
		default:
			remote.Store().Update(key, store.Value("theirs"))
			localMissing[key] = true
		}
		src.Advance(1)
	}
	src.Advance(500) // push all divergence outside any recent window
	return local, remote, srv, localMissing, remoteMissing
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestShardVectorRepairPropertyAcrossCodecs is the wire-level correctness
// property: for random divergence scattered across shards, a shard-vector
// exchange applies exactly the key set each side was missing, and the pair
// converges. Peers with different shard counts narrow at the smaller one;
// the whole-store walk is the same exchange against a 1-shard store, whose
// vector has one bucket. The cases keep the codec pairings older builds
// offered: a retired name is now refused on the side that names it, and no
// repair runs.
func TestShardVectorRepairPropertyAcrossCodecs(t *testing.T) {
	cases := []struct {
		name                      string
		clientCodec, serverCodec  string
		localShards, remoteShards int
	}{
		{"v4-v4", "binary", "binary", 16, 16},
		{"v4-v3", "binary", "binary-v3", 16, 16},
		{"v4-v2", "binary", "binary-v2", 16, 16},
		{"v4-gob", "binary", "gob", 16, 16},
		{"v3-v4", "binary-v3", "binary", 16, 16},
		{"legacy-v4", "legacy", "binary", 16, 16},
		{"v4-v4-mismatched-shards", "binary", "binary", 16, 64},
	}
	sc := shardVecScenario{shared: 300, localOnly: 25, remoteOnly: 25, seed: 0x5eed}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			remote, err := node.New(node.Config{Site: 2})
			if err != nil {
				t.Fatal(err)
			}
			if expectCodecRefused(t, remote, tc.serverCodec, tc.clientCodec) {
				return
			}
			run := func(localShards, remoteShards int) (core.ExchangeStats, WireSnapshot) {
				local, remote, srv, localMissing, remoteMissing := buildShardVecPair(t, sc, localShards, remoteShards)
				defer srv.Close()
				stats := &WireStats{}
				peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{Codec: tc.clientCodec, Stats: stats})
				defer peer.Close()
				st, err := peer.AntiEntropy(core.ResolveConfig{
					Mode: core.PushPull, Strategy: core.CompareRecent,
					Tau: 10, BatchSize: 16,
				}, local, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !store.ContentEqual(local, remote.Store()) {
					t.Fatal("stores differ after anti-entropy")
				}
				// The applied key set on the local side must be exactly the
				// keys local was missing: AppliedKeys lists the initiator's
				// own repairs, never the ones it shipped to the peer.
				got := map[string]bool{}
				for _, k := range st.AppliedKeys {
					got[k] = true
				}
				want := sortedKeys(localMissing)
				if gotKeys := sortedKeys(got); !equalStrings(gotKeys, want) {
					t.Fatalf("applied %d keys %v\nwant %d keys %v", len(gotKeys), gotKeys, len(want), want)
				}
				// The applied key set on each side must be exactly the keys
				// that side was missing.
				for site, missing := range map[timestamp.SiteID]map[string]bool{1: localMissing, 2: remoteMissing} {
					got := map[string]bool{}
					for _, k := range st.AppliedBySite[site] {
						got[k] = true
					}
					want := sortedKeys(missing)
					if gotKeys := sortedKeys(got); !equalStrings(gotKeys, want) {
						t.Fatalf("applied %d keys at site %d %v\nwant %d keys %v", len(gotKeys), site, gotKeys, len(want), want)
					}
				}
				for k := range remoteMissing {
					if _, ok := remote.Store().Lookup(k); !ok {
						t.Fatalf("remote still missing %q", k)
					}
				}
				return st, stats.Snapshot()
			}

			svStats, snap := run(tc.localShards, tc.remoteShards)
			// The global walk: a 1-shard store folds the pair to one bucket.
			pbStats, pbSnap := run(1, tc.remoteShards)

			// Identical applied sets were asserted inside run for both paths;
			// here pin which mechanism did the work.
			if snap.ShardVecExchanges != 1 || svStats.ShardsRepaired <= 1 {
				t.Errorf("narrow path: repaired %d buckets, stats %+v", svStats.ShardsRepaired, snap)
			}
			if pbSnap.ShardVecExchanges != 1 || pbStats.ShardsRepaired != 1 {
				t.Errorf("global path: repaired %d buckets, stats %+v", pbStats.ShardsRepaired, pbSnap)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardVectorWalkRepairsManyShardsOnOneSession drives a divergence
// across most of 32 buckets: the walks run one after another, so the
// repair is exact and the whole conversation rides one pooled session.
func TestShardVectorWalkRepairsManyShardsOnOneSession(t *testing.T) {
	sc := shardVecScenario{shared: 200, localOnly: 120, remoteOnly: 120, seed: 7}
	local, remote, srv, localMissing, remoteMissing := buildShardVecPair(t, sc, 32, 32)
	defer srv.Close()
	stats := &WireStats{}
	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{Stats: stats})
	defer peer.Close()
	st, err := peer.AntiEntropy(core.ResolveConfig{
		Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 10, BatchSize: 16,
	}, local, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !store.ContentEqual(local, remote.Store()) {
		t.Fatal("stores differ after the bucket walks")
	}
	if want := len(localMissing) + len(remoteMissing); st.EntriesApplied != want {
		t.Errorf("applied %d entries, want %d", st.EntriesApplied, want)
	}
	snap := stats.Snapshot()
	if snap.ShardVecExchanges != 1 || st.ShardsRepaired == 0 {
		t.Errorf("narrow path accounting off: %+v / repaired %d", snap, st.ShardsRepaired)
	}
	if snap.ShardVecShards != int64(st.ShardsRepaired) {
		t.Errorf("stats shards %d != exchange shards %d", snap.ShardVecShards, st.ShardsRepaired)
	}
	if st.ShardsRepaired < 16 {
		t.Errorf("walked %d buckets, want most of 32", st.ShardsRepaired)
	}
	if snap.Dials != 1 {
		t.Errorf("the conversation dialed %d sessions, want 1", snap.Dials)
	}
}

// bucketOf returns the bucket of m that key folds into, read off the
// vector of a scratch store holding key alone.
func bucketOf(t *testing.T, key string, m int) int {
	t.Helper()
	s := store.NewSharded(1, timestamp.NewSimulated(1).ClockAt(1), m)
	s.Update(key, store.Value("v"))
	for b, sum := range s.AppendChecksumVector(nil, m, s.Now(), 0) {
		if sum != 0 {
			return b
		}
	}
	t.Fatalf("key %q folds into no bucket", key)
	return -1
}

// TestBucketWalkEndsConversationDespiteMidConversationWrite writes a key
// on the remote while the walk of the one diverged bucket is in flight,
// into a bucket the vector saw as equal. The conversation still ends with
// that walk — no global recompare, no whole-store walk, no full swap —
// and leaves the write to the next conversation, whose vector sees it.
func TestBucketWalkEndsConversationDespiteMidConversationWrite(t *testing.T) {
	const shards = 16
	// One key only the local side holds.
	sc := shardVecScenario{shared: 40, localOnly: 1, seed: 3}
	local, remote, srv, _, remoteMissing := buildShardVecPair(t, sc, shards, shards)
	defer srv.Close()
	old := sortedKeys(remoteMissing)[0]
	late := ""
	for i := 0; late == ""; i++ {
		if k := fmt.Sprintf("late-%d", i); bucketOf(t, k, shards) != bucketOf(t, old, shards) {
			late = k
		}
	}
	var once sync.Once
	remote.SetOnEvent(func(ev node.Event) {
		if ev.Kind == node.EventApply && ev.Key == old {
			once.Do(func() { remote.Update(late, store.Value("concurrent")) })
		}
	})

	stats := &WireStats{}
	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{Stats: stats})
	defer peer.Close()
	cfg := core.ResolveConfig{Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 10, BatchSize: 16}
	st, err := peer.AntiEntropy(cfg, local, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := remote.Store().Get(old); !ok {
		t.Fatal("the walk did not deliver the diverged key")
	}
	if _, ok := local.Get(late); ok {
		t.Error("the mid-conversation write crossed in the same conversation")
	}
	// The vector and one walk round of the diverged bucket.
	snap := stats.Snapshot()
	if st.FullCompare || snap.MsgsBinary != 2 || st.ShardsRepaired != 1 || snap.ShardVecExchanges != 1 {
		t.Errorf("full swap %v, %d round trips (want 2), %d buckets repaired, %+v",
			st.FullCompare, snap.MsgsBinary, st.ShardsRepaired, snap)
	}

	// The next conversation's vector finds the write's bucket diverged.
	if _, err := peer.AntiEntropy(cfg, local, nil); err != nil {
		t.Fatal(err)
	}
	if !store.ContentEqual(local, remote.Store()) {
		t.Fatal("stores differ after the next conversation")
	}
}

// malformedBucketRequests are the bucket frames a server refuses: a shard
// count that is not a power of two at least 1, a bucket count above the
// server's own shard count (16 in TestMalformedBucketRequestsRefused), or a
// bucket outside [0, m). Each carries an entry a served request would
// apply.
func malformedBucketRequests() []request {
	e := store.Entry{Key: "bad", Value: store.Value("x"), Stamp: timestamp.T{Time: 1, Site: 9, Seq: 1}}
	e.Activation = e.Stamp
	peel := func(b, m int) request {
		return request{Kind: reqPeelBackShard, From: 9, Entries: []store.Entry{e},
			Bound: store.PeelStart, Limit: 8, Shard: b, ShardCount: m}
	}
	return []request{
		{Kind: reqShardVector, From: 9},
		{Kind: reqShardVector, From: 9, ShardCount: 3},
		{Kind: reqShardVector, From: 9, ShardCount: -16},
		peel(0, 0),
		peel(0, 3),
		peel(0, -4),
		peel(0, 32),
		peel(16, 16),
		peel(-1, 16),
		peel(1, 1),
	}
}

// TestMalformedBucketRequestsRefused runs the server's dispatch over each
// malformed bucket request: every one draws Err, none panics, and none
// applies its entry. Well-formed vector requests get the vector folded to
// the smaller shard count.
func TestMalformedBucketRequestsRefused(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	n, err := node.New(node.Config{Site: 2, Clock: src.ClockAt(2), StoreShards: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 100; i++ {
		n.Store().Update(fmt.Sprintf("k%03d", i), store.Value("v"))
	}
	for _, req := range malformedBucketRequests() {
		if resp := srv.dispatch(req, nil); resp.Err == "" {
			t.Errorf("kind %s bucket %d of %d: no error, answered %+v", req.Kind.kindName(), req.Shard, req.ShardCount, resp)
		}
	}
	if _, ok := n.Store().Get("bad"); ok {
		t.Error("a refused bucket request applied its entry")
	}
	now, live := n.Store().Now(), n.Store().ChecksumLive(n.Store().Now(), 0)
	for _, tc := range []struct{ sent, want int }{{1, 1}, {4, 4}, {16, 16}, {64, 16}} {
		resp := srv.dispatch(request{Kind: reqShardVector, ShardCount: tc.sent, Now: now}, nil)
		if resp.Err != "" || resp.ShardCount != tc.want || len(resp.Vector) != tc.want {
			t.Fatalf("vector for %d shards: got %d buckets, %d sums, err %q; want %d",
				tc.sent, resp.ShardCount, len(resp.Vector), resp.Err, tc.want)
		}
		var fold uint64
		for _, v := range resp.Vector {
			fold ^= v
		}
		if fold != live {
			t.Errorf("vector for %d shards folds to %#x, live checksum %#x", tc.sent, fold, live)
		}
	}
}
