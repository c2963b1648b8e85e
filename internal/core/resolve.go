package core

import (
	"fmt"

	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// CompareStrategy selects how two sites performing anti-entropy detect the
// differences between their databases (§1.3).
type CompareStrategy int

const (
	// CompareFull ships the entire database contents.
	CompareFull CompareStrategy = iota + 1
	// CompareChecksum exchanges database checksums first and ships the
	// full contents only on mismatch.
	CompareChecksum
	// CompareRecent exchanges recent update lists (entries younger than
	// Tau), applies them, then compares checksums and falls back to a full
	// compare on mismatch.
	CompareRecent
	// ComparePeelBack exchanges updates in reverse timestamp order,
	// batch by batch, until the checksums agree (§1.3's "peel back").
	ComparePeelBack
	// CompareShardVector opens with per-bucket checksum vectors and peels
	// back only the diverged buckets' timestamp indexes, keeping examined
	// work proportional to the divergence rather than the database; a
	// bucket that spends its peel budget falls back to a full compare. The
	// vectors are folded to the smaller of the two stores' shard counts
	// (see store.ChecksumBucket), so any pair of stores narrows. It is the
	// wire's one conversation (Reconcile), run here in process.
	CompareShardVector
)

// String names the strategy.
func (s CompareStrategy) String() string {
	switch s {
	case CompareFull:
		return "full"
	case CompareChecksum:
		return "checksum"
	case CompareRecent:
		return "recent-update-list"
	case ComparePeelBack:
		return "peel-back"
	case CompareShardVector:
		return "shard-vector"
	default:
		return fmt.Sprintf("CompareStrategy(%d)", int(s))
	}
}

// DefaultPeelBatch is the peel-back batch size used when BatchSize is 0,
// both in-process and on the wire.
const DefaultPeelBatch = 16

// ResolveConfig configures a database-level ResolveDifference exchange.
type ResolveConfig struct {
	// Mode is push, pull, or push-pull. Strategies other than CompareFull
	// are inherently bidirectional and require PushPull.
	Mode Mode
	// Strategy picks the difference-detection scheme.
	Strategy CompareStrategy
	// Tau is the recent-update window for CompareRecent: updates are
	// expected to reach all sites within Tau (§1.3). Poorly chosen Tau
	// degrades to full comparisons, exactly as the paper warns.
	Tau int64
	// Tau1 is the death-certificate dormancy threshold: dormant
	// certificates do not propagate during anti-entropy (§2.2) and are
	// excluded from live checksums.
	Tau1 int64
	// BatchSize is the peel-back batch; 0 means 16.
	BatchSize int
	// ReactivateDormant awakens a dormant death certificate when it
	// rejects an incoming obsolete item, advancing its activation
	// timestamp so it spreads again (§2.2).
	ReactivateDormant bool
}

// Validate reports configuration errors.
func (c ResolveConfig) Validate() error {
	if !c.Mode.Valid() {
		return fmt.Errorf("core: invalid mode %v", c.Mode)
	}
	switch c.Strategy {
	case CompareFull:
	case CompareChecksum, CompareRecent, ComparePeelBack, CompareShardVector:
		if c.Mode != PushPull {
			return fmt.Errorf("core: %v comparison requires PushPull mode", c.Strategy)
		}
	default:
		return fmt.Errorf("core: invalid strategy %v", c.Strategy)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("core: BatchSize must be >= 0")
	}
	return nil
}

// ExchangeStats reports what one ResolveDifference conversation did. All
// directions are from the initiator's point of view: EntriesSent travelled
// initiator→partner, EntriesReceived travelled partner→initiator, so
// Tables-4/5-style compare-vs-update traffic is attributable per direction.
type ExchangeStats struct {
	// EntriesSent counts entries the initiator transmitted to its partner.
	EntriesSent int
	// EntriesReceived counts entries the partner transmitted back to the
	// initiator.
	EntriesReceived int
	// EntriesApplied counts transmissions that changed a replica.
	EntriesApplied int
	// ChecksumsCompared counts checksum exchanges.
	ChecksumsCompared int
	// FullCompare reports whether the conversation fell back to shipping
	// complete databases.
	FullCompare bool
	// ShardsRepaired counts the diverged buckets the shard-vector strategy
	// walked to agreement (zero for other strategies, and when a walk spent
	// its peel budget and the conversation fell back to a full compare).
	ShardsRepaired int
	// AppliedKeys lists the repaired keys §1.5's redistribution policies
	// act on. In process that is every key whose entry changed either
	// replica. A wire conversation lists only the initiator's own repairs,
	// as it always has: the peer's are in AppliedBySite, and a peer that
	// restarted empty takes tens of thousands, which would all turn into
	// rumors at the initiator.
	AppliedKeys []string
	// AppliedBySite lists, by the site ID of the replica it landed on,
	// every key whose entry changed a replica (one per EntriesApplied) —
	// the attribution observability needs to turn repairs into per-site
	// infection timestamps, on the wire as in process.
	AppliedBySite map[timestamp.SiteID][]string
	// Repairs records each applied entry with full provenance: which site
	// it landed on, which site shipped it, the exact version, and the
	// anti-entropy sub-mechanism (recent/full compare vs peel-back batch).
	// SenderHop starts at trace.HopUnknown; transports that carry hop
	// envelopes overwrite it so receivers can stamp causal hop counts. Like
	// AppliedKeys, a wire conversation records only the initiator's own;
	// the peer stamps its repairs as it applies them.
	Repairs []Repair
	// Reactivated lists death certificates awakened by obsolete items.
	Reactivated []string
}

// RepairedKeys returns the deduplicated union of AppliedKeys and
// Reactivated, preserving first-seen order — the key set §1.5's
// redistribution policies act on after a conversation.
func (st ExchangeStats) RepairedKeys() []string {
	if len(st.AppliedKeys)+len(st.Reactivated) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(st.AppliedKeys)+len(st.Reactivated))
	keys := make([]string, 0, len(st.AppliedKeys)+len(st.Reactivated))
	for _, group := range [][]string{st.AppliedKeys, st.Reactivated} {
		for _, k := range group {
			if seen[k] {
				continue
			}
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// Repair is one applied entry's provenance within an anti-entropy
// conversation: the version Stamp landed on Site, shipped by Parent via
// Mech. SenderHop is the hop count the version had at the sender
// (trace.HopUnknown when no envelope established it).
type Repair struct {
	Site      timestamp.SiteID
	Parent    timestamp.SiteID
	Key       string
	Stamp     timestamp.T
	Mech      trace.Mechanism
	SenderHop int32
}

// Transferred returns the total entries moved in either direction — the
// network cost of the conversation.
func (st ExchangeStats) Transferred() int { return st.EntriesSent + st.EntriesReceived }

// NoteApplied counts one transmission that changed the replica at site:
// EntriesApplied and AppliedBySite.
func (st *ExchangeStats) NoteApplied(site timestamp.SiteID, key string) {
	st.EntriesApplied++
	if st.AppliedBySite == nil {
		st.AppliedBySite = make(map[timestamp.SiteID][]string)
	}
	st.AppliedBySite[site] = append(st.AppliedBySite[site], key)
}

// NoteRepair is NoteApplied for a repair the initiator acts on: the key is
// also listed in AppliedKeys for redistribution, and r kept in Repairs for
// span stamping.
func (st *ExchangeStats) NoteRepair(r Repair) {
	st.NoteApplied(r.Site, r.Key)
	st.AppliedKeys = append(st.AppliedKeys, r.Key)
	st.Repairs = append(st.Repairs, r)
}

// Add folds o, the stats of one part of a conversation, into st.
func (st *ExchangeStats) Add(o ExchangeStats) {
	st.EntriesSent += o.EntriesSent
	st.EntriesReceived += o.EntriesReceived
	st.EntriesApplied += o.EntriesApplied
	st.ChecksumsCompared += o.ChecksumsCompared
	st.FullCompare = st.FullCompare || o.FullCompare
	st.ShardsRepaired += o.ShardsRepaired
	st.AppliedKeys = append(st.AppliedKeys, o.AppliedKeys...)
	for site, keys := range o.AppliedBySite {
		if st.AppliedBySite == nil {
			st.AppliedBySite = make(map[timestamp.SiteID][]string)
		}
		st.AppliedBySite[site] = append(st.AppliedBySite[site], keys...)
	}
	st.Repairs = append(st.Repairs, o.Repairs...)
	st.Reactivated = append(st.Reactivated, o.Reactivated...)
}

// countTransfer attributes one shipped entry to the right direction:
// entries leaving the initiator are sent, entries arriving at it received.
func (st *ExchangeStats) countTransfer(from, initiator *store.Store) {
	if from == initiator {
		st.EntriesSent++
	} else {
		st.EntriesReceived++
	}
}

// ResolveDifference carries out one anti-entropy conversation between the
// initiator s and its partner p, per §1.3's three variants. It returns
// statistics about the exchange. Dormant death certificates never
// propagate; when ReactivateDormant is set they are awakened if they meet
// an obsolete item.
func ResolveDifference(cfg ResolveConfig, s, p *store.Store) (ExchangeStats, error) {
	if err := cfg.Validate(); err != nil {
		return ExchangeStats{}, err
	}
	var st ExchangeStats
	switch cfg.Strategy {
	case CompareFull:
		resolveFull(cfg, s, p, &st)
	case CompareChecksum:
		st.ChecksumsCompared++
		if !liveChecksumEqual(cfg, s, p) {
			resolveFull(cfg, s, p, &st)
		}
	case CompareRecent:
		now := maxNow(s, p)
		sendEntries(cfg, s.RecentUpdates(now, cfg.Tau), s, p, s, trace.MechAntiEntropy, &st)
		sendEntries(cfg, p.RecentUpdates(now, cfg.Tau), p, s, s, trace.MechAntiEntropy, &st)
		st.ChecksumsCompared++
		if !liveChecksumEqual(cfg, s, p) {
			resolveFull(cfg, s, p, &st)
		}
	case ComparePeelBack:
		resolvePeelBack(cfg, s, p, &st)
	case CompareShardVector:
		far := &storePartner{cfg: cfg, store: p}
		var err error
		st, err = Reconcile(cfg, s, nil, far)
		st.Add(far.st)
		return st, err
	}
	return st, nil
}

// resolveFull ships complete (non-dormant) databases in the direction(s)
// the mode allows.
func resolveFull(cfg ResolveConfig, s, p *store.Store, st *ExchangeStats) {
	st.FullCompare = true
	if cfg.Mode == Push || cfg.Mode == PushPull {
		sendEntries(cfg, s.Snapshot(), s, p, s, trace.MechAntiEntropy, st)
	}
	if cfg.Mode == Pull || cfg.Mode == PushPull {
		sendEntries(cfg, p.Snapshot(), p, s, s, trace.MechAntiEntropy, st)
	}
}

// sendEntries transmits from's entries to to, skipping dormant death
// certificates (§2.2), and applies them. initiator identifies the
// conversation's initiating store so traffic is attributed to the right
// direction; mech tags the resulting Repairs with the anti-entropy
// sub-mechanism that shipped them. A certificate an obsolete entry woke at
// to goes straight back to from, so it starts spreading.
func sendEntries(cfg ResolveConfig, entries []store.Entry, from, to, initiator *store.Store, mech trace.Mechanism, st *ExchangeStats) {
	now := maxNow(from, to)
	live := make([]store.Entry, 0, len(entries))
	for _, e := range entries {
		if !store.IsDormant(e, now, cfg.Tau1) {
			st.countTransfer(from, initiator)
			live = append(live, e)
		}
	}
	_, repairs, awakened := applyRepairs(cfg, to, live, nil, from.Site(), mech)
	for _, r := range repairs {
		st.NoteRepair(r)
	}
	for _, re := range awakened {
		st.Reactivated = append(st.Reactivated, re.Key)
		st.countTransfer(to, initiator)
		if from.Apply(re).Changed() {
			st.NoteApplied(from.Site(), re.Key)
		}
	}
}

// ReactivateIfDormant is §2.2's answer to an obsolete item that holder just
// rejected with its death certificate for key: when that certificate is
// dormant (activation older than tau1 at holder's clock) its activation is
// advanced to now, and the awakened certificate is returned for the caller
// to ship back, so the item cannot resurrect at sites that already dropped
// their copy. A live certificate is left alone: it is still spreading.
func ReactivateIfDormant(holder *store.Store, key string, tau1 int64) (store.Entry, bool) {
	cur, ok := holder.Get(key)
	if !ok || !store.IsDormant(cur, holder.Now(), tau1) {
		return store.Entry{}, false
	}
	return holder.Reactivate(key)
}

// resolvePeelBack exchanges updates newest-first in batches until the live
// checksums agree (§1.3, §1.5). Both stores walk their own timestamp
// indexes; agreement is guaranteed once all differing entries have been
// shipped, and typically happens after the first batch.
func resolvePeelBack(cfg ResolveConfig, s, p *store.Store, st *ExchangeStats) {
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = DefaultPeelBatch
	}
	st.ChecksumsCompared++
	if liveChecksumEqual(cfg, s, p) {
		return
	}
	sNext := s.NewestFirst(batch)
	pNext := p.NewestFirst(batch)
	for {
		sendEntries(cfg, sNext, s, p, s, trace.MechPeelBack, st)
		sendEntries(cfg, pNext, p, s, s, trace.MechPeelBack, st)
		st.ChecksumsCompared++
		if liveChecksumEqual(cfg, s, p) {
			return
		}
		if len(sNext) == 0 && len(pNext) == 0 {
			// Indexes exhausted; databases agree on everything that can
			// propagate (remaining differences are dormant certificates).
			return
		}
		if len(sNext) > 0 {
			sNext = s.OlderThan(sNext[len(sNext)-1].Stamp, batch)
		}
		if len(pNext) > 0 {
			pNext = p.OlderThan(pNext[len(pNext)-1].Stamp, batch)
		}
	}
}

func liveChecksumEqual(cfg ResolveConfig, s, p *store.Store) bool {
	now := maxNow(s, p)
	return s.ChecksumLive(now, cfg.Tau1) == p.ChecksumLive(now, cfg.Tau1)
}

// maxNow returns the later of the two sites' clock readings; using one
// consistent "now" for both sides keeps dormancy decisions coherent within
// a conversation (the paper assumes clock skew ε ≪ τ1).
func maxNow(a, b *store.Store) int64 {
	na, nb := a.Now(), b.Now()
	if na > nb {
		return na
	}
	return nb
}
