package store

import (
	"sort"
	"strings"
	"sync/atomic"

	"epidemic/internal/timestamp"
)

// ApplyResult describes the outcome of merging a remote entry into a local
// store.
type ApplyResult int

const (
	// Unchanged: the incoming entry is identical to or older than the local
	// entry; nothing happened.
	Unchanged ApplyResult = iota + 1
	// Applied: the incoming entry superseded the local state.
	Applied
	// ActivationAdvanced: same ordinary timestamp, but the incoming death
	// certificate carries a newer activation timestamp, which was adopted.
	ActivationAdvanced
	// RejectedByDeath: the incoming ordinary entry is older than a local
	// death certificate — an obsolete copy trying to "resurrect" the item
	// (§2). The protocol layer should reactivate the certificate if it is
	// dormant.
	RejectedByDeath
)

// String names the result for logs and tests.
func (r ApplyResult) String() string {
	switch r {
	case Unchanged:
		return "unchanged"
	case Applied:
		return "applied"
	case ActivationAdvanced:
		return "activation-advanced"
	case RejectedByDeath:
		return "rejected-by-death"
	default:
		return "invalid"
	}
}

// Changed reports whether the merge modified local state (i.e. the sender's
// entry was "needed" in the rumor-mongering feedback sense).
func (r ApplyResult) Changed() bool { return r == Applied || r == ActivationAdvanced }

// Store is one site's replica of the database. It is safe for concurrent
// use.
//
// Internally the replica is a sharded map: keys hash onto power-of-two
// lock stripes, each with its own entry map, death set, incremental XOR
// checksum, and timestamp index. Point operations (Update, Get, Apply)
// touch one shard; the global checksum is an XOR fold of per-shard sums
// under read locks; the timestamp-ordered reads (RecentUpdates,
// NewestFirst, PeelBatch, LiveSnapshot) k-way merge the per-shard indexes,
// reproducing the single-index order exactly because timestamps are
// globally unique.
type Store struct {
	site   timestamp.SiteID
	clock  timestamp.Clock
	mask   uint32
	shards []shard
	lifted atomic.Uint32 // stamps issued by stampPast
}

// New returns an empty store for the given site with DefaultShards lock
// stripes.
func New(site timestamp.SiteID, clock timestamp.Clock) *Store {
	return NewSharded(site, clock, DefaultShards)
}

// NewSharded returns an empty store with the given shard count, rounded up
// to the next power of two (<= 0 selects DefaultShards). One shard degrades
// gracefully to the seed's single-lock store.
func NewSharded(site timestamp.SiteID, clock timestamp.Clock, shards int) *Store {
	n := 1
	if shards <= 0 {
		n = DefaultShards
	} else {
		for n < shards && n < maxShards {
			n <<= 1
		}
	}
	s := &Store{
		site:   site,
		clock:  clock,
		mask:   uint32(n - 1),
		shards: make([]shard, n),
	}
	for i := range s.shards {
		s.shards[i].entries = make(map[string]Entry)
		s.shards[i].deaths = make(map[string]struct{})
	}
	return s
}

// shardFor hashes key onto its lock stripe (FNV-1a, masked to the
// power-of-two shard count).
func (s *Store) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.shards[h&s.mask]
}

// ShardCount returns the number of lock stripes.
func (s *Store) ShardCount() int { return len(s.shards) }

// Site returns the owning site's ID.
func (s *Store) Site() timestamp.SiteID { return s.site }

// Now exposes the site clock's current reading (for age computations by
// protocol layers).
func (s *Store) Now() int64 { return s.clock.Read() }

// Len returns the number of entries, including death certificates.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// LiveLen returns the number of non-deleted items.
func (s *Store) LiveLen() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.entries) - len(sh.deaths)
		sh.mu.RUnlock()
	}
	return n
}

// Update performs the client Update operation of §1.1: it writes value
// under key with a fresh timestamp and returns the new entry.
func (s *Store) Update(key string, value Value) Entry {
	// Copy and never store nil: a nil Value means deletion, and an
	// explicit empty value is not a deletion.
	v := make(Value, len(value))
	copy(v, value)
	return s.write(Entry{Key: key, Value: v})
}

// Delete replaces the item with a death certificate (§2) whose retention
// sites are given by retention (may be nil). It returns the certificate.
func (s *Store) Delete(key string, retention []timestamp.SiteID) Entry {
	return s.write(Entry{Key: key, Retention: append([]timestamp.SiteID(nil), retention...)})
}

// write stamps a local write and installs it. The stamp is the clock's,
// unless the replica already holds key at a stamp no older — written by a
// site whose clock runs ahead — in which case it is the first tick past
// the held stamp. Either way the write supersedes what it replaces here
// and at every replica that holds the same, instead of being lost to it.
func (s *Store) write(e Entry) Entry {
	sh := s.shardFor(e.Key)
	sh.mu.Lock()
	ts := s.clock.Now()
	if held, ok := sh.entries[e.Key]; ok && !held.Stamp.Less(ts) {
		ts = s.stampPast(held.Stamp)
	}
	e.Stamp, e.Activation = ts, ts
	sh.put(e)
	sh.mu.Unlock()
	return e.clone()
}

// liftedSeq marks the Seq of a stamp issued by stampPast. A Clock's Seq
// counts stamps within one reading of its time and never reaches the top
// bit, so a lifted stamp cannot equal one the clock issues, and the
// counter below the bit keeps lifted stamps apart from each other.
const liftedSeq = 1 << 31

// stampPast returns a stamp of this site one tick past held.
func (s *Store) stampPast(held timestamp.T) timestamp.T {
	n := s.lifted.Add(1)
	return timestamp.T{Time: held.Time + 1, Site: s.site, Seq: liftedSeq | n&(liftedSeq-1)}
}

// Lookup returns the current value for key from a client's perspective:
// deleted or absent items return ok=false, as the paper specifies that
// ValueOf[k] = (NIL, t) "is the same as undefined".
func (s *Store) Lookup(key string) (Value, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.entries[key]
	if !ok || e.IsDeath() {
		return nil, false
	}
	return append(Value(nil), e.Value...), true
}

// Get returns the raw entry for key, including death certificates.
func (s *Store) Get(key string) (Entry, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.entries[key]
	if !ok {
		return Entry{}, false
	}
	return e.clone(), true
}

// Merge is the paper's timestamp rule as a pure decision table: the outcome
// of merging in into a replica that holds cur for the same key (held false:
// holds nothing). A larger ordinary timestamp always supersedes a smaller
// one; equal ordinary timestamps adopt the larger activation timestamp
// (reactivated death certificates). Only Stamp, Activation and whether
// Value is nil are read, and nil-ness merely separates the two unchanged
// outcomes, so Changed() is exact for value-less ids as well as full
// entries. Apply and Wants both decide here.
func Merge(cur Entry, held bool, in Entry) ApplyResult {
	switch {
	case !held || cur.Stamp.Less(in.Stamp):
		return Applied
	case in.Stamp.Less(cur.Stamp):
		if cur.IsDeath() && !in.IsDeath() {
			return RejectedByDeath
		}
		return Unchanged
	case cur.Activation.Less(in.Activation): // same ordinary timestamp
		return ActivationAdvanced
	default:
		return Unchanged
	}
}

// Apply merges a remote entry into the store and reports what Merge
// decided.
func (s *Store) Apply(e Entry) ApplyResult {
	sh := s.shardFor(e.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.entries[e.Key]
	res := Merge(cur, ok, e)
	switch res {
	case Applied:
		sh.put(e.clone())
	case ActivationAdvanced:
		cur.Activation = e.Activation
		sh.entries[e.Key] = cur
	}
	return res
}

// ID returns the identity of the entry held for key — Key, Stamp and
// Activation, without cloning Value or Retention — which is all a rumor
// offer puts on the wire and all Merge needs to judge it.
func (s *Store) ID(key string) (Entry, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.entries[key]
	return Entry{Key: key, Stamp: e.Stamp, Activation: e.Activation}, ok
}

// Wants judges an offered id without applying anything. wants is exactly
// Apply(e).Changed() for the entry e the id names; covered reports that the
// offerer's copy is at least as new as this replica's, so shipping ours back
// would not change the offerer either.
func (s *Store) Wants(id Entry) (wants, covered bool) {
	sh := s.shardFor(id.Key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	cur, ok := sh.entries[id.Key]
	return Merge(cur, ok, id).Changed(), ok && !Merge(id, true, cur).Changed()
}

// Checksum returns the incremental checksum over all entries: the XOR fold
// of the per-shard sums, taken under shard read locks only — no
// stop-the-world. Concurrent writers on other shards are free to proceed;
// as with any gossip checksum, a fold racing a writer reflects some
// interleaving of the writes, and anti-entropy's next round absorbs it.
func (s *Store) Checksum() uint64 {
	var sum uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sum ^= sh.sum
		sh.mu.RUnlock()
	}
	return sum
}

// ChecksumLive returns the checksum excluding dormant death certificates
// (activation older than tau1 at time now). Sites at different points of a
// certificate's dormancy would otherwise permanently disagree even with
// identical live content.
func (s *Store) ChecksumLive(now, tau1 int64) uint64 {
	var sum uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sum ^= sh.liveSum(now, tau1)
		sh.mu.RUnlock()
	}
	return sum
}

// Reactivate awakens the death certificate for key: its activation
// timestamp is advanced to the current time (its ordinary timestamp is
// unchanged, so updates between the two are not cancelled, §2.2). It
// returns the updated certificate and true, or false if key does not hold
// a death certificate.
func (s *Store) Reactivate(key string) (Entry, bool) {
	// Take the clock reading outside the lock ordering of put (clock has
	// its own mutex; order is store→clock everywhere).
	act := s.clock.Now()
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok || !e.IsDeath() {
		return Entry{}, false
	}
	if e.Activation.Less(act) {
		e.Activation = act
		sh.entries[key] = e
	}
	return e.clone(), true
}

// IsDormant reports whether the entry's activation timestamp is older than
// tau1 at time now (dormant death certificates are not propagated by
// anti-entropy, §2.2).
func IsDormant(e Entry, now, tau1 int64) bool {
	return e.IsDeath() && now-e.Activation.Time > tau1
}

// ExpireDeathCertificates applies §2.1's retention policy at time now:
// certificates with activation age in (tau1, tau1+tau2] survive only at
// their retention sites; older than tau1+tau2 they are discarded
// everywhere. It returns how many certificates were dropped.
func (s *Store) ExpireDeathCertificates(now, tau1, tau2 int64) int {
	dropped := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		var doomed []string
		for key := range sh.deaths {
			e := sh.entries[key]
			age := now - e.Activation.Time
			switch {
			case age > tau1+tau2:
				doomed = append(doomed, key)
			case age > tau1 && !e.RetainedBy(s.site):
				doomed = append(doomed, key)
			}
		}
		for _, key := range doomed {
			sh.drop(key)
		}
		sh.mu.Unlock()
		dropped += len(doomed)
	}
	return dropped
}

// DeathCertificates returns all death certificates currently held.
func (s *Store) DeathCertificates() []Entry {
	var out []Entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for key := range sh.deaths {
			out = append(out, sh.entries[key].clone())
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// RecentUpdates returns all entries whose ordinary timestamp is within tau
// of now, newest first — the paper's "recent update list" (§1.3). The
// per-shard index suffixes are merged by timestamp.
func (s *Store) RecentUpdates(now, tau int64) []Entry {
	total := s.recentCount(now, tau)
	if total == 0 {
		return nil
	}
	per := make([][]Entry, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		per[i] = sh.collectRecent(now, tau)
		sh.mu.RUnlock()
	}
	merged := mergeDesc(per, nil, 0)
	if len(merged) == 0 {
		return nil
	}
	return merged
}

// recentCount sizes the window before anything is collected: the
// steady-state in-sync exchange has an empty one, and the collection
// scratch would be its only allocation.
func (s *Store) recentCount(now, tau int64) int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += sh.recentCount(now, tau)
		sh.mu.RUnlock()
	}
	return total
}

// NewestFirst returns up to limit entries in reverse timestamp order
// (a zero limit returns all), merging the per-shard indexes. It powers the
// peel-back exchange (§1.3).
func (s *Store) NewestFirst(limit int) []Entry {
	merged, _ := s.collectMerged(0, 1, PeelStart, limit)
	return merged
}

// OlderThan returns up to limit entries strictly older than bound, newest
// first. Peel-back uses it to fetch the next batch.
func (s *Store) OlderThan(bound timestamp.T, limit int) []Entry {
	merged, _ := s.collectMerged(0, 1, bound, limit)
	return merged
}

// collectMerged gathers up to limit records strictly older than bound from
// every shard of bucket b of m (limit <= 0 means all) and merges them
// newest first. total is the bucket-wide number of records older than
// bound, which may exceed len(merged). Each shard contributes at most limit
// records — a superset of any bucket-wide top-limit — so the merge result
// equals a walk of one index over the bucket.
//
// The per-shard slices and merge cursors come from a sync.Pool: peel-back
// runs this once per wire round, and the scratch heap was the dominant
// per-round allocation. Only the returned merged slice escapes.
func (s *Store) collectMerged(b, m int, bound timestamp.T, limit int) (merged []Entry, total int) {
	sc := getMergeScratch(len(s.shards) / m)
	defer putMergeScratch(sc)
	for j := range sc.per {
		sh := &s.shards[b+j*m]
		sh.mu.RLock()
		var n int
		sc.per[j], n = sh.appendOlder(sc.per[j], bound, limit)
		sh.mu.RUnlock()
		total += n
	}
	return mergeDesc(sc.per, sc.cursor, limit), total
}

// Snapshot returns a copy of all entries, sorted by key.
func (s *Store) Snapshot() []Entry {
	out := make([]Entry, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			out = append(out, e.clone())
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ScanPrefix returns the live (non-deleted) entries whose keys start with
// prefix, sorted by key.
func (s *Store) ScanPrefix(prefix string) []Entry {
	var out []Entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, e := range sh.entries {
			if e.IsDeath() || !strings.HasPrefix(k, prefix) {
				continue
			}
			out = append(out, e.clone())
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Keys returns all keys, sorted.
func (s *Store) Keys() []string {
	out := make([]string, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.entries {
			out = append(out, k)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// ContentEqual reports whether two stores hold identical database content.
func ContentEqual(a, b *Store) bool {
	as, bs := a.Snapshot(), b.Snapshot()
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if !as[i].Equal(bs[i]) {
			return false
		}
	}
	return true
}
