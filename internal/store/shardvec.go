package store

import "slices"

// liveSum returns this shard's checksum excluding dormant death
// certificates (activation older than tau1 at time now). Caller holds
// sh.mu (read suffices).
func (sh *shard) liveSum(now, tau1 int64) uint64 {
	sum := sh.sum
	for key := range sh.deaths {
		e := sh.entries[key]
		if now-e.Activation.Time > tau1 {
			sum ^= e.hash()
		}
	}
	return sum
}

// Buckets. A key's shard is its FNV-1a hash masked to the power-of-two
// shard count S, so for any power of two m <= S the shards congruent to b
// modulo m hold exactly the keys whose hash is b modulo m. That set is
// bucket b of m: it means the same keys in every store with at least m
// shards, whatever their own S. Anti-entropy compares and walks buckets at
// the smaller of two stores' shard counts, and bucket 0 of 1 is the whole
// store. Every bucket argument below must be a power of two m no larger
// than ShardCount() and a b in [0, m).

// ChecksumVector returns the per-shard live checksums (dormant death
// certificates excluded, exactly as ChecksumLive) as one slice indexed by
// shard: the vector at m = ShardCount().
func (s *Store) ChecksumVector(now, tau1 int64) []uint64 {
	return s.AppendChecksumVector(nil, len(s.shards), now, tau1)
}

// AppendChecksumVector appends the live checksums of the m buckets to dst
// and returns the extended slice, so wire-path callers can reuse a pooled
// backing array: it allocates only when dst lacks room for m more. Live
// checksums are XORs, so bucket b's is the XOR of its shards' and the
// whole vector XOR-folds to ChecksumLive. Each shard is read under its own
// lock with no merge: O(S + deaths) regardless of database size.
func (s *Store) AppendChecksumVector(dst []uint64, m int, now, tau1 int64) []uint64 {
	base := len(dst)
	dst = slices.Grow(dst, m)[:base+m]
	clear(dst[base:])
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		dst[base+i&(m-1)] ^= sh.liveSum(now, tau1)
		sh.mu.RUnlock()
	}
	return dst
}

// ChecksumBucket returns the live checksum of bucket b of m alone.
func (s *Store) ChecksumBucket(b, m int, now, tau1 int64) uint64 {
	var sum uint64
	for i := b; i < len(s.shards); i += m {
		sh := &s.shards[i]
		sh.mu.RLock()
		sum ^= sh.liveSum(now, tau1)
		sh.mu.RUnlock()
	}
	return sum
}
