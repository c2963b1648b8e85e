package core

import (
	"fmt"

	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// The shard-vector conversation (CompareShardVector) is §1.3's checksum
// compare narrowed by bucket, and core runs both of its sides: Reconcile
// is the initiator, Respond the partner. It opens with the partner's live
// checksums of m buckets, m the smaller of the two stores' shard counts
// (see store.ChecksumBucket), so an in-sync pair settles in one round
// trip. The diverged buckets are then walked one after another: both sides
// peel back through the bucket in reverse-timestamp batches, re-comparing
// its checksum after every batch and stopping as soon as it agrees, so a
// conversation ships O(δ) entries for δ differing keys. It ends with those
// walks. No global recompare follows: a write landing meanwhile would fail
// it, and that write is what mail, rumors and the next conversation deliver
// anyway. Only a bucket that spends its peel budget sends the conversation
// on to a full swap. A Partner carries each round trip, over the wire
// (transport.TCPPeer) or in process (ResolveDifference).

// Rung names one round trip of the shard-vector conversation.
type Rung int

const (
	// RungVector asks for the partner's bucket vector.
	RungVector Rung = iota + 1
	// RungPeel ships one peel batch of a bucket and asks for the partner's
	// next batch of it and the bucket's checksum.
	RungPeel
	// RungCarry ships entries the partner applies as repairs — certificates
	// a reply woke (§2.2) — and asks for its live checksum. Without entries
	// it is the bare checksum probe.
	RungCarry
	// RungSwap ships the whole live database and asks for the partner's:
	// the capped last resort.
	RungSwap
)

// LadderRequest is one round trip's request.
type LadderRequest struct {
	Rung    Rung
	From    timestamp.SiteID
	Entries []store.Entry
	// Hops carries one provenance envelope per entry in Entries, or nil.
	Hops []trace.Hop
	Now  int64
	Tau1 int64
	// ShardCount is the initiator's shard count on RungVector, and the
	// bucket count m on RungPeel, whose Shard is the bucket b in [0, m).
	Shard      int
	ShardCount int
	// Bound and Limit drive the partner's side of a RungPeel walk: up to
	// Limit entries of the bucket strictly older than Bound, newest first.
	// The partner is stateless across rounds; the initiator echoes back the
	// Bound each reply hands it.
	Bound timestamp.T
	Limit int
}

// LadderReply answers a LadderRequest.
type LadderReply struct {
	// Needed[i] reports whether request entry i changed the partner.
	Needed  []bool
	Entries []store.Entry
	Hops    []trace.Hop
	// Checksum is the bucket's live checksum on RungPeel, the replica's on
	// RungCarry.
	Checksum uint64
	Now      int64
	// Bound and More resume the partner's peel walk: Bound is the oldest
	// index record it examined, More whether older records remain.
	Bound timestamp.T
	More  bool
	// ShardCount and Vector answer RungVector: the bucket count m and the
	// partner's m bucket live checksums.
	ShardCount int
	Vector     []uint64
}

// Partner is the far side of a shard-vector conversation. Each Ask is one
// round trip; the reply's slices may be reused by the next Ask.
type Partner interface {
	ID() timestamp.SiteID
	Ask(LadderRequest) (LadderReply, error)
}

const (
	// ProbeBatch is the opening batch of a bucket walk; it grows ×4 a round
	// up to the configured BatchSize, so shallow divergence costs O(δ)
	// instead of a full batch each way.
	ProbeBatch = 8
	// PeelRounds caps the rounds of one bucket walk; a walk that spends them
	// sends the conversation to the full swap.
	PeelRounds = 32
)

// Reconcile runs the initiator's side of the shard-vector conversation
// between local and far. Throughout, with cfg.ReactivateDormant set, an
// obsolete entry that meets a dormant death certificate wakes it (§2.2),
// and the awakened certificate crosses to the other side before the next
// compare. Of cfg only Tau1, BatchSize and ReactivateDormant are read: the
// conversation is always push-pull. tr supplies the provenance envelopes
// of shipped entries (nil: none). The stats record far's repairs through
// its Needed bits, and local's own in full.
func Reconcile(cfg ResolveConfig, local *store.Store, tr *trace.Tracer, far Partner) (ExchangeStats, error) {
	var st ExchangeStats
	now := local.Now()
	rep, err := far.Ask(LadderRequest{
		Rung: RungVector, From: local.Site(), Now: now, Tau1: cfg.Tau1, ShardCount: local.ShardCount(),
	})
	if err != nil {
		return st, err
	}
	st.ChecksumsCompared++
	now = max(now, rep.Now)
	m := rep.ShardCount
	if !isBucketCount(m) || m > local.ShardCount() || len(rep.Vector) != m {
		return st, fmt.Errorf("core: site %d sent %d bucket sums for %d buckets against %d shards",
			far.ID(), len(rep.Vector), m, local.ShardCount())
	}
	var diverged []int
	for b, sum := range rep.Vector {
		if local.ChecksumBucket(b, m, now, cfg.Tau1) != sum {
			diverged = append(diverged, b)
		}
	}
	if len(diverged) == 0 {
		return st, nil
	}
	c := conversation{cfg: cfg, local: local, tr: tr, far: far, now: now}
	return c.repair(m, diverged, st)
}

// conversation is the initiator's state across one Reconcile.
type conversation struct {
	cfg   ResolveConfig
	local *store.Store
	tr    *trace.Tracer
	far   Partner
	now   int64
	st    *ExchangeStats
}

// repair walks the diverged buckets of m one after another, after which
// the conversation ends; only a bucket that spent its peel budget sends it
// on to the full swap. st comes by value: the conversation keeps its
// address, which would otherwise move Reconcile's stats to the heap on the
// allocation-free in-sync path.
func (c *conversation) repair(m int, diverged []int, st ExchangeStats) (ExchangeStats, error) {
	c.st = &st
	for _, b := range diverged {
		settled, err := c.walk(b, m)
		if err != nil {
			return st, err
		}
		if !settled {
			st.FullCompare = true
			full := c.local.LiveSnapshot(c.now, c.cfg.Tau1)
			_, err = c.exchange(LadderRequest{Rung: RungSwap, Entries: full}, trace.MechAntiEntropy)
			return st, err
		}
	}
	st.ShardsRepaired = len(diverged)
	return st, nil
}

// walk reconciles bucket b of m: both sides peel the bucket's slice of
// their timestamp index in reverse order, re-comparing the bucket checksum
// after every round, until the checksums agree or both walks are
// exhausted. It reports false when PeelRounds rounds were spent first.
func (c *conversation) walk(b, m int) (settled bool, err error) {
	batch := c.cfg.BatchSize
	if batch <= 0 {
		batch = DefaultPeelBatch
	}
	size := min(batch, ProbeBatch)
	localBound, remoteBound := store.PeelStart, store.PeelStart
	localMore := true
	for range PeelRounds {
		var mine []store.Entry
		if localMore {
			mine, localBound, localMore = c.local.PeelBucket(b, m, localBound, size, c.now, c.cfg.Tau1)
		}
		// A certificate woken here rides a carrier after the partner read
		// its bucket checksum: the bucket compares again next round.
		rep, err := c.exchange(LadderRequest{
			Rung: RungPeel, Entries: mine, Bound: remoteBound, Limit: size, Shard: b, ShardCount: m,
		}, trace.MechPeelBack)
		if err != nil {
			return false, err
		}
		size = min(size*4, batch)
		remoteBound = rep.Bound
		c.st.ChecksumsCompared++
		// With both walks exhausted every shippable entry crossed; what
		// still differs is dormant certificates, which must not propagate
		// (§2.2).
		if c.local.ChecksumBucket(b, m, c.now, c.cfg.Tau1) == rep.Checksum || !localMore && !rep.More {
			return true, nil
		}
	}
	return false, nil
}

// exchange stamps req, whose Entries are this side's shipment, with the
// conversation's sender, clock and envelopes, asks it and settles the
// reply. Certificates the reply woke here go straight back on a carrier,
// whose reply is settled in turn; each key wakes at most once — its
// certificate is live afterwards — so the carriers end. The reply's
// scalars are returned; its slices are spent.
func (c *conversation) exchange(req LadderRequest, mech trace.Mechanism) (LadderReply, error) {
	req.From, req.Now, req.Tau1 = c.local.Site(), c.now, c.cfg.Tau1
	req.Hops = c.tr.Envelopes(req.Entries)
	rep, err := c.far.Ask(req)
	if err != nil {
		return rep, err
	}
	if awake := c.settle(req.Entries, rep, mech); len(awake) > 0 {
		_, err = c.exchange(LadderRequest{Rung: RungCarry, Entries: awake}, trace.MechAntiEntropy)
	}
	return rep, err
}

// settle books one round trip that shipped sent: those entries the reply's
// Needed bits report applied at the partner (counted only — redistribution
// and span stamping act on this side's own repairs), then the reply's own
// entries, applied here. It returns the dormant certificates the reply
// woke here, which must cross back.
func (c *conversation) settle(sent []store.Entry, rep LadderReply, mech trace.Mechanism) []store.Entry {
	st, id := c.st, c.far.ID()
	st.EntriesSent += len(sent)
	st.EntriesReceived += len(rep.Entries)
	for i, e := range sent {
		if i < len(rep.Needed) && rep.Needed[i] {
			st.NoteApplied(id, e.Key)
		}
	}
	_, repairs, awakened := applyRepairs(c.cfg, c.local, rep.Entries, rep.Hops, id, mech)
	for _, r := range repairs {
		st.NoteRepair(r)
	}
	for _, e := range awakened {
		st.Reactivated = append(st.Reactivated, e.Key)
	}
	return awakened
}

// applyRepairs applies the entries from shipped to s: needed[i] reports
// whether entry i changed s, repairs records each change with the sender's
// hop count from hops, and awakened lists the dormant certificates that
// obsolete entries woke when cfg reactivates them (§2.2).
func applyRepairs(cfg ResolveConfig, s *store.Store, entries []store.Entry, hops []trace.Hop, from timestamp.SiteID, mech trace.Mechanism) (needed []bool, repairs []Repair, awakened []store.Entry) {
	needed = make([]bool, len(entries))
	for i, e := range entries {
		switch res := s.Apply(e); {
		case res.Changed():
			needed[i] = true
			senderHop := trace.HopUnknown
			if i < len(hops) && hops[i].Valid {
				senderHop = hops[i].Count
			}
			repairs = append(repairs, Repair{
				Site: s.Site(), Parent: from,
				Key: e.Key, Stamp: e.Stamp,
				Mech: mech, SenderHop: senderHop,
			})
		case res == store.RejectedByDeath && cfg.ReactivateDormant:
			if re, ok := ReactivateIfDormant(s, e.Key, cfg.Tau1); ok {
				awakened = append(awakened, re)
			}
		}
	}
	return needed, repairs, awakened
}

// ApplyFunc applies the entries a request ships to the partner's replica
// as anti-entropy repairs, in node.Node.ApplyRepairs's shape: needed[i]
// reports whether entry i changed the replica, awakened lists the dormant
// certificates the entries woke (§2.2).
type ApplyFunc func(entries []store.Entry, hops []trace.Hop, from timestamp.SiteID, mech trace.Mechanism, tau1 int64) (needed []bool, awakened []store.Entry)

// peelLimitCap bounds the batch a request can demand of a peel walk.
const peelLimitCap = 8192

// Respond answers one request of the conversation on st, the partner's
// replica. The request's entries are applied through apply first, so the
// reply answers for the replica they leave; a request that names an
// impossible bucket is refused before anything is applied. tr supplies the
// reply's provenance envelopes (nil: none); vec is scratch the vector
// reply is built in.
func Respond(st *store.Store, req LadderRequest, apply ApplyFunc, tr *trace.Tracer, vec []uint64) (LadderReply, error) {
	mech := trace.MechAntiEntropy
	switch req.Rung {
	case RungVector:
		if !isBucketCount(req.ShardCount) {
			return LadderReply{}, fmt.Errorf("shard count %d is not a power of two", req.ShardCount)
		}
		now := max(st.Now(), req.Now)
		m := min(req.ShardCount, st.ShardCount())
		return LadderReply{Now: now, ShardCount: m, Vector: st.AppendChecksumVector(vec[:0], m, now, req.Tau1)}, nil
	case RungPeel:
		if m := req.ShardCount; !isBucketCount(m) || m > st.ShardCount() || req.Shard < 0 || req.Shard >= m {
			return LadderReply{}, fmt.Errorf("bucket %d of %d invalid against %d shards",
				req.Shard, req.ShardCount, st.ShardCount())
		}
		mech = trace.MechPeelBack
	case RungCarry, RungSwap:
	default:
		return LadderReply{}, fmt.Errorf("unknown rung %d", req.Rung)
	}
	needed, awakened := apply(req.Entries, req.Hops, req.From, mech, req.Tau1)
	now := max(st.Now(), req.Now)
	rep := LadderReply{Needed: needed}
	switch req.Rung {
	case RungPeel:
		rep.Now = now
		limit := req.Limit
		if limit <= 0 {
			limit = DefaultPeelBatch
		}
		rep.Entries, rep.Bound, rep.More = st.PeelBucket(req.Shard, req.ShardCount, req.Bound, min(limit, peelLimitCap), now, req.Tau1)
		rep.Entries = withAwakened(rep.Entries, awakened)
		rep.Checksum = st.ChecksumBucket(req.Shard, req.ShardCount, now, req.Tau1)
	case RungCarry:
		rep.Entries = awakened
		rep.Checksum = st.ChecksumLive(now, req.Tau1)
	case RungSwap:
		// Read after the apply, the snapshot already carries every
		// certificate the entries woke.
		rep.Now = now
		rep.Entries = st.LiveSnapshot(now, req.Tau1)
	}
	rep.Hops = tr.Envelopes(rep.Entries)
	return rep, nil
}

// isBucketCount reports whether m can count buckets: a power of two, at
// least 1. A store folds to any such m up to its own shard count.
func isBucketCount(m int) bool { return m > 0 && m&(m-1) == 0 }

// withAwakened appends to a peel batch the certificates the request's
// entries woke that the batch, read after the apply, does not already
// carry.
func withAwakened(batch, awakened []store.Entry) []store.Entry {
next:
	for _, re := range awakened {
		for _, e := range batch {
			if e.Key == re.Key {
				continue next
			}
		}
		batch = append(batch, re)
	}
	return batch
}

// storePartner is the partner in process: Respond on the partner's store,
// applying with cfg's §2.2 policy. It keeps the repairs it makes and the
// certificates it wakes, which ResolveDifference adds to the stats: in
// process they cover both replicas.
type storePartner struct {
	cfg   ResolveConfig
	store *store.Store
	st    ExchangeStats
}

func (p *storePartner) ID() timestamp.SiteID { return p.store.Site() }

func (p *storePartner) Ask(req LadderRequest) (LadderReply, error) {
	return Respond(p.store, req, p.apply, nil, nil)
}

// apply is an ApplyFunc over the bare store.
func (p *storePartner) apply(entries []store.Entry, hops []trace.Hop, from timestamp.SiteID, mech trace.Mechanism, _ int64) ([]bool, []store.Entry) {
	needed, repairs, awakened := applyRepairs(p.cfg, p.store, entries, hops, from, mech)
	for _, r := range repairs {
		p.st.AppliedKeys = append(p.st.AppliedKeys, r.Key)
	}
	p.st.Repairs = append(p.st.Repairs, repairs...)
	for _, e := range awakened {
		p.st.Reactivated = append(p.st.Reactivated, e.Key)
	}
	return needed, awakened
}
