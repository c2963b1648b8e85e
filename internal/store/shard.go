package store

import (
	"slices"
	"sync"

	"epidemic/internal/timestamp"
)

// DefaultShards is the shard count New uses. Sixteen shards keep the
// striped-lock win (writers on different shards never contend) while the
// k-way merges over per-shard time indexes stay cheap.
const DefaultShards = 16

// maxShards bounds NewSharded against absurd requests; beyond this the
// per-shard maps are so small that merge overhead dominates.
const maxShards = 1 << 10

// shard is one lock stripe of the store: a private entry map, death set,
// incremental XOR checksum, and time index, all guarded by one RWMutex.
// A key lives in exactly one shard (chosen by hash), so every per-shard
// invariant of the seed's single-mutex store holds per shard, and global
// reads are folds or k-way merges over the shards.
type shard struct {
	mu      sync.RWMutex
	entries map[string]Entry
	deaths  map[string]struct{} // keys whose entry is a death certificate
	sum     uint64              // incremental XOR checksum of this shard's entries
	index   timeIndex           // this shard's entries ordered by ordinary timestamp
}

// put installs e, maintaining the shard checksum, death set, and time
// index. Caller holds sh.mu; e must not alias caller-retained slices.
func (sh *shard) put(e Entry) {
	if old, ok := sh.entries[e.Key]; ok {
		sh.sum ^= old.hash()
		sh.index.remove(old.Stamp, e.Key)
		delete(sh.deaths, e.Key)
	}
	sh.entries[e.Key] = e
	sh.sum ^= e.hash()
	sh.index.insert(e.Stamp, e.Key)
	if e.IsDeath() {
		sh.deaths[e.Key] = struct{}{}
	}
}

// drop removes the entry for key entirely (death-certificate expiry).
// Caller holds sh.mu.
func (sh *shard) drop(key string) {
	old, ok := sh.entries[key]
	if !ok {
		return
	}
	sh.sum ^= old.hash()
	sh.index.remove(old.Stamp, key)
	delete(sh.entries, key)
	delete(sh.deaths, key)
}

// Cross-shard merges work on cloned entries directly: an entry's Stamp is
// exactly its index stamp (put keeps them in lockstep), so no separate
// merge record is needed.

// appendOlder appends to dst this shard's entries strictly older than
// bound, newest first, cloned, capped at limit (limit <= 0 means all), and
// returns the extended slice plus the total number of such records (which
// may exceed the number appended). Callers pool dst. Caller holds sh.mu
// (read suffices).
func (sh *shard) appendOlder(dst []Entry, bound timestamp.T, limit int) ([]Entry, int) {
	total := sh.index.searchBefore(bound)
	n := total
	if limit > 0 && limit < n {
		n = limit
	}
	if n == 0 {
		return dst, total
	}
	dst = slices.Grow(dst, n)
	for k := total - 1; k >= total-n; k-- {
		dst = append(dst, sh.entries[sh.index.keys[k].key].clone())
	}
	return dst, total
}

// appendAfter appends to dst up to limit of this shard's entries with
// stamps strictly after *after (from the oldest when after is nil), oldest
// first. The copies are shallow: a stored entry's Value and Retention are
// never written in place (put takes ownership, Apply and Reactivate
// replace the struct), so they stay readable once the lock drops. Caller
// holds sh.mu (read suffices).
func (sh *shard) appendAfter(dst []Entry, after *timestamp.T, limit int) []Entry {
	keys := sh.index.keys
	i := 0
	if after != nil {
		i = sh.index.searchBefore(*after)
		for i < len(keys) && !after.Less(keys[i].stamp) {
			i++
		}
	}
	for end := min(len(keys), i+limit); i < end; i++ {
		dst = append(dst, sh.entries[keys[i].key])
	}
	return dst
}

// recentCount returns how many of this shard's entries have age strictly
// less than tau at time now. Caller holds sh.mu.
func (sh *shard) recentCount(now, tau int64) int {
	n := 0
	for k := len(sh.index.keys) - 1; k >= 0; k-- {
		if now-sh.index.keys[k].stamp.Time >= tau { // ages strictly less than tau qualify
			break
		}
		n++
	}
	return n
}

// collectRecent returns this shard's entries with age strictly less than
// tau at time now, newest first, cloned. Caller holds sh.mu.
func (sh *shard) collectRecent(now, tau int64) []Entry {
	n := sh.recentCount(now, tau)
	if n == 0 {
		return nil
	}
	recs := make([]Entry, 0, n)
	for k := len(sh.index.keys) - 1; k >= len(sh.index.keys)-n; k-- {
		recs = append(recs, sh.entries[sh.index.keys[k].key].clone())
	}
	return recs
}

// mergeScratch is the reusable workspace for collectMerged: the per-shard
// record slices plus the merge cursors. Pooled (mirroring transport's
// wireCall pool) because every peel round of every concurrent exchange
// would otherwise allocate a fresh heap of slices.
type mergeScratch struct {
	per    [][]Entry
	cursor []int
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

func getMergeScratch(n int) *mergeScratch {
	sc := mergeScratchPool.Get().(*mergeScratch)
	if cap(sc.per) < n {
		sc.per = make([][]Entry, n)
		sc.cursor = make([]int, n)
	}
	sc.per = sc.per[:n]
	sc.cursor = sc.cursor[:n]
	return sc
}

// putMergeScratch zeroes the Entry values before pooling — they hold
// caller data (keys, values, retention slices) that the pool must not pin
// — but keeps the backing arrays for reuse.
func putMergeScratch(sc *mergeScratch) {
	for i := range sc.per {
		clear(sc.per[i])
		sc.per[i] = sc.per[i][:0]
	}
	mergeScratchPool.Put(sc)
}

// mergeDesc k-way merges per-shard entry slices (each already newest
// first) into one newest-first slice, stopping after limit records
// (limit <= 0 means all). Timestamps are globally unique, so the merged
// order is total and identical to the seed's single global index walk.
// cursor is optional scratch of len(per) (nil allocates).
func mergeDesc(per [][]Entry, cursor []int, limit int) []Entry {
	total := 0
	for _, p := range per {
		total += len(p)
	}
	if limit <= 0 || limit > total {
		limit = total
	}
	out := make([]Entry, 0, limit)
	if cursor == nil {
		cursor = make([]int, len(per))
	} else {
		clear(cursor)
	}
	for len(out) < limit {
		best := -1
		for i, p := range per {
			if cursor[i] >= len(p) {
				continue
			}
			if best < 0 || per[best][cursor[best]].Stamp.Less(p[cursor[i]].Stamp) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, per[best][cursor[best]])
		cursor[best]++
	}
	return out
}

// mergeAsc k-way merges per-shard entry slices (each oldest first) into
// one oldest-first run appended to dst.
func mergeAsc(dst []Entry, per [][]Entry) []Entry {
	total := len(dst)
	for _, p := range per {
		total += len(p)
	}
	out := slices.Grow(dst, total-len(dst))
	cursor := make([]int, len(per))
	for len(out) < total {
		best := -1
		for i, p := range per {
			if cursor[i] >= len(p) {
				continue
			}
			if best < 0 || p[cursor[i]].Stamp.Less(per[best][cursor[best]].Stamp) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, per[best][cursor[best]])
		cursor[best]++
	}
	return out
}
