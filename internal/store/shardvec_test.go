package store

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"epidemic/internal/timestamp"
)

// buildShardVecStore writes n entries plus some deletions so the vector
// tests see live entries, fresh death certificates, and dormant ones.
func buildShardVecStore(t *testing.T, shards, n int) (*Store, *timestamp.Simulated) {
	t.Helper()
	src := timestamp.NewSimulated(1)
	st := NewSharded(1, src.ClockAt(1), shards)
	for i := 0; i < n; i++ {
		st.Update(fmt.Sprintf("sv%04d", i), Value("v"))
		src.Advance(1)
	}
	// Every 7th key becomes a death certificate; the early ones will be
	// dormant by the time the tests read "now".
	for i := 0; i < n; i += 7 {
		st.Delete(fmt.Sprintf("sv%04d", i), nil)
		src.Advance(1)
	}
	src.Advance(50)
	return st, src
}

func TestChecksumVectorFoldsToLive(t *testing.T) {
	st, _ := buildShardVecStore(t, 8, 200)
	now := st.Now()
	for _, tau1 := range []int64{0, 40, 1 << 40} {
		vec := st.ChecksumVector(now, tau1)
		if len(vec) != st.ShardCount() {
			t.Fatalf("vector len = %d, want %d", len(vec), st.ShardCount())
		}
		var fold uint64
		for i, v := range vec {
			fold ^= v
			if got := st.ChecksumBucket(i, len(vec), now, tau1); got != v {
				t.Errorf("tau1=%d shard %d: ChecksumBucket = %#x, vector = %#x", tau1, i, got, v)
			}
		}
		if live := st.ChecksumLive(now, tau1); fold != live {
			t.Errorf("tau1=%d: vector fold = %#x, ChecksumLive = %#x", tau1, fold, live)
		}
	}
}

func TestAppendChecksumVectorReusesBacking(t *testing.T) {
	st, _ := buildShardVecStore(t, 4, 40)
	now := st.Now()
	buf := make([]uint64, 0, st.ShardCount())
	got := st.AppendChecksumVector(buf, st.ShardCount(), now, 1<<40)
	if &got[0] != &buf[:1][0] {
		t.Error("AppendChecksumVector reallocated despite sufficient capacity")
	}
	want := st.ChecksumVector(now, 1<<40)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shard %d: append = %#x, fresh = %#x", i, got[i], want[i])
		}
	}
}

// bucketOf is the bucket of m that key hashes to: FNV-1a, as shardFor
// hashes, masked to m.
func bucketOf(key string, m int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() & uint32(m-1))
}

// TestPeelBatchShardMatchesGlobalWalk checks the bucket fold for every
// shard count S and every bucket count m <= S: walking every bucket to
// exhaustion visits exactly the entries the global peel walk visits, each
// once and newest first within its bucket; a store with the same content
// and a different shard count folds to the same vector at m; and the
// folded vector XORs to ChecksumLive.
func TestPeelBatchShardMatchesGlobalWalk(t *testing.T) {
	const tau1 = 40 // early deletions are dormant, late ones live
	ref, _ := buildShardVecStore(t, 64, 300)
	for _, shards := range []int{1, 2, 16, 64} {
		st, _ := buildShardVecStore(t, shards, 300)
		now := st.Now()
		want := map[string]Entry{}
		bound, more := PeelStart, true
		for more {
			var batch []Entry
			batch, bound, more = st.PeelBatch(bound, 16, now, tau1)
			for _, e := range batch {
				want[e.Key] = e
			}
		}
		for m := 1; m <= shards; m *= 2 {
			got := map[string]Entry{}
			for b := 0; b < m; b++ {
				bound, more := PeelStart, true
				var prev timestamp.T
				first := true
				for more {
					var batch []Entry
					batch, bound, more = st.PeelBucket(b, m, bound, 16, now, tau1)
					for _, e := range batch {
						if bucketOf(e.Key, m) != b {
							t.Fatalf("S=%d bucket %d/%d returned foreign key %q", shards, b, m, e.Key)
						}
						if !first && prev.Less(e.Stamp) {
							t.Fatalf("S=%d bucket %d/%d walk not newest-first: %v then %v", shards, b, m, prev, e.Stamp)
						}
						prev, first = e.Stamp, false
						if _, dup := got[e.Key]; dup {
							t.Fatalf("S=%d m=%d: key %q returned twice", shards, m, e.Key)
						}
						got[e.Key] = e
					}
				}
				// An exhausted bucket walk stays exhausted.
				if batch, _, more := st.PeelBucket(b, m, bound, 16, now, tau1); len(batch) != 0 || more {
					t.Fatalf("S=%d bucket %d/%d walk past the end returned %d entries, more=%v", shards, b, m, len(batch), more)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("S=%d m=%d: bucket walks visited %d entries, global walk %d", shards, m, len(got), len(want))
			}
			for k, e := range want {
				if g, ok := got[k]; !ok || !g.Equal(e) {
					t.Errorf("S=%d m=%d: key %q differs between bucket and global walks", shards, m, k)
				}
			}

			vec := st.AppendChecksumVector(nil, m, now, tau1)
			if other := ref.AppendChecksumVector(nil, m, now, tau1); !slices.Equal(vec, other) {
				t.Errorf("m=%d: %d-shard vector %x, 64-shard vector %x", m, shards, vec, other)
			}
			var fold uint64
			for b, v := range vec {
				fold ^= v
				if got := st.ChecksumBucket(b, m, now, tau1); got != v {
					t.Errorf("S=%d bucket %d/%d: ChecksumBucket = %#x, vector = %#x", shards, b, m, got, v)
				}
			}
			if live := st.ChecksumLive(now, tau1); fold != live {
				t.Errorf("S=%d m=%d: vector fold = %#x, ChecksumLive = %#x", shards, m, fold, live)
			}
		}
	}
}

// TestCollectMergedScratchPooled pins the satellite win: a peel round's
// scratch (per-shard slice heap + merge cursors) comes from the pool. The
// returned entries are clones that must escape, so the pooling is
// observable on an empty walk — before pooling it cost the [][]Entry heap
// plus the cursor slice; now it is allocation-free.
func TestCollectMergedScratchPooled(t *testing.T) {
	st, _ := buildShardVecStore(t, 16, 400)
	exhausted := timestamp.T{} // nothing is older than the zero stamp
	// Warm the pool.
	for i := 0; i < 4; i++ {
		st.OlderThan(exhausted, 64)
	}
	avg := testing.AllocsPerRun(100, func() {
		st.OlderThan(exhausted, 64)
	})
	if avg > 0 {
		t.Errorf("empty OlderThan allocates %.1f/op with pooled scratch, want 0", avg)
	}
}
