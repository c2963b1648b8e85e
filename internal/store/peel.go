package store

import (
	"math"

	"epidemic/internal/timestamp"
)

// PeelStart is the exclusive upper bound that makes PeelBatch begin at the
// newest entry: it orders after every timestamp a clock can issue.
var PeelStart = timestamp.T{Time: math.MaxInt64, Site: math.MaxInt32, Seq: math.MaxUint32}

// PeelBucket returns one batch of the reverse-timestamp walk that wire-level
// peel-back anti-entropy performs (§1.3/§1.5), confined to bucket b of m
// (see ChecksumBucket): up to limit of the bucket's index records strictly
// older than bound are examined newest-first, and the non-dormant ones
// among them are returned. next is the timestamp of the oldest record
// examined — pass it back as the bound of the following call to resume the
// walk — and more reports whether records older than next remain. Pass
// PeelStart to begin at the newest entry; limit <= 0 examines everything at
// once.
//
// Examined-versus-returned matters: dormant death certificates are skipped
// on the wire (§2.2) but still advance the walk, so the resume bound stays
// well-defined even when a whole batch is dormant.
//
// The walk is a k-way merge over the bucket's per-shard timestamp indexes;
// because timestamps are globally unique the merged order, the resume
// bounds and the examined counts are those of one index over the bucket's
// keys, whatever the store's shard count. A δ-entry divergence under a
// deep database therefore examines O(δ + N/m) records per diverged bucket
// instead of O(N).
func (s *Store) PeelBucket(b, m int, bound timestamp.T, limit int, now, tau1 int64) (batch []Entry, next timestamp.T, more bool) {
	merged, total := s.collectMerged(b, m, bound, limit)
	if len(merged) == 0 {
		return nil, bound, false
	}
	batch = make([]Entry, 0, len(merged))
	for _, e := range merged {
		if !IsDormant(e, now, tau1) {
			batch = append(batch, e)
		}
		next = e.Stamp
	}
	return batch, next, total > len(merged)
}

// PeelBatch is the walk over the whole store: PeelBucket of bucket 0 of 1.
func (s *Store) PeelBatch(bound timestamp.T, limit int, now, tau1 int64) (batch []Entry, next timestamp.T, more bool) {
	return s.PeelBucket(0, 1, bound, limit, now, tau1)
}

// LiveSnapshot returns a copy of every non-dormant entry — the payload of
// a full-database exchange, which excludes dormant death certificates
// (§2.2). Entries are in global timestamp order, oldest first, merged from
// the per-shard indexes.
func (s *Store) LiveSnapshot(now, tau1 int64) []Entry {
	per := make([][]Entry, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		recs := make([]Entry, 0, len(sh.index.keys))
		for _, rec := range sh.index.keys {
			e := sh.entries[rec.key]
			if !IsDormant(e, now, tau1) {
				recs = append(recs, e.clone())
			}
		}
		sh.mu.RUnlock()
		per[i] = recs
	}
	return mergeAsc(nil, per)
}
