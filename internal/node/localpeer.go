package node

import (
	"errors"
	"math/rand"
	"sync"

	"epidemic/internal/core"
	"epidemic/internal/obs/cluster"
	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// LocalPeer exposes an in-process Node as a Peer, with optional failure
// injection modelling the paper's unreliable substrate: lossy mail (queue
// overflow, §1.2) and partitions (a down peer refuses conversations).
type LocalPeer struct {
	target *Node

	// owner is the calling node's digest directory; when set, anti-entropy
	// and rumor-offer conversations exchange cluster digests with the
	// target, mirroring the TCP transport's piggyback. Nil disables.
	owner *cluster.Directory

	mu       sync.Mutex
	rng      *rand.Rand
	mailLoss float64
	down     bool
}

var _ Peer = (*LocalPeer)(nil)

// NewLocalPeer wraps target. seed feeds the loss-injection RNG.
func NewLocalPeer(target *Node, seed int64) *LocalPeer {
	return &LocalPeer{target: target, rng: rand.New(rand.NewSource(seed))}
}

// SetDigestDirectory installs the calling node's digest directory so
// conversations through this peer carry cluster digests both ways (the
// in-process analogue of the wire piggyback). Nil disables. Set before
// use; not safe to swap while conversations run.
func (p *LocalPeer) SetDigestDirectory(owner *cluster.Directory) {
	p.owner = owner
}

// exchangeDigests pushes the digests the target lacks and pulls back the
// ones the owner lacks — the bidirectional piggyback every conversation
// gets, under the wire's per-peer rule: the target merges first, then
// answers with its own delta, and each side marks what it delivered.
// A no-op when either side has no directory.
func (p *LocalPeer) exchangeDigests() {
	theirs := p.target.Digests()
	if p.owner == nil || theirs == nil {
		return
	}
	self, peer := p.owner.Self(), theirs.Self()
	out := p.owner.ShareTo(peer)
	theirs.Merge(self, out)
	back := theirs.ShareTo(self)
	theirs.Delivered(self, back)
	p.owner.Merge(peer, back)
	p.owner.Delivered(peer, out)
}

// SetMailLoss sets the probability that a mailed update is silently
// dropped.
func (p *LocalPeer) SetMailLoss(prob float64) {
	p.mu.Lock()
	p.mailLoss = prob
	p.mu.Unlock()
}

// SetDown simulates a partition: while down, conversations fail and mail
// is discarded (the paper's queues overflow when "destinations are
// inaccessible for a long time").
func (p *LocalPeer) SetDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
}

// ErrPeerDown is returned while the peer is partitioned away.
var ErrPeerDown = errors.New("node: peer unreachable")

// ID implements Peer.
func (p *LocalPeer) ID() timestamp.SiteID { return p.target.Site() }

// AntiEntropy implements Peer. Repairs that land on the target replica are
// reported to it as apply events — ResolveDifference writes into both
// stores directly, so the target would otherwise never observe its own
// infections. Before reporting, each repair's SenderHop is backfilled from
// the shipping side's tracer so both parties stamp causal hop counts, just
// as the wire envelope provides over TCP.
func (p *LocalPeer) AntiEntropy(cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer) (core.ExchangeStats, error) {
	if p.isDown() {
		return core.ExchangeStats{}, ErrPeerDown
	}
	st, err := core.ResolveDifference(cfg, local, p.target.Store())
	if err != nil {
		return st, err
	}
	for i, r := range st.Repairs {
		sender := tr
		if r.Parent == p.target.Site() {
			sender = p.target.Tracer()
		}
		if env := sender.Envelope(r.Key, r.Stamp); env.Valid {
			st.Repairs[i].SenderHop = env.Count
		}
	}
	p.target.noteRepaired(st.Repairs)
	p.exchangeDigests()
	return st, nil
}

// PushRumors implements Peer.
func (p *LocalPeer) PushRumors(entries []store.Entry, hops []trace.Hop) ([]bool, error) {
	if p.isDown() {
		return nil, ErrPeerDown
	}
	return p.target.HandleRumors(entries, hops), nil
}

// OfferRumors implements Peer.
func (p *LocalPeer) OfferRumors(ids []store.Entry) ([]bool, []store.Entry, []trace.Hop, error) {
	if p.isDown() {
		return nil, nil, nil, ErrPeerDown
	}
	want, entries, hops := p.target.HandleOffer(ids)
	p.exchangeDigests()
	return want, entries, hops, nil
}

// Checksum implements Peer.
func (p *LocalPeer) Checksum(tau1 int64) (uint64, error) {
	if p.isDown() {
		return 0, ErrPeerDown
	}
	st := p.target.Store()
	return st.ChecksumLive(st.Now(), tau1), nil
}

// MailBatch implements Peer. Each entry is lost independently — the loss
// RNG is drawn once per entry, in order — and the survivors reach the
// target in one HandleMailBatch. Lost mail returns nil: PostMail's failure
// mode is silent ("messages may be discarded when queues overflow").
func (p *LocalPeer) MailBatch(b MailBatch) error {
	p.mu.Lock()
	if p.down {
		p.mu.Unlock()
		return nil
	}
	if p.mailLoss > 0 {
		kept := MailBatch{From: b.From, QueuedNanos: b.QueuedNanos, Coalesced: b.Coalesced}
		for i, e := range b.Entries {
			if p.rng.Float64() < p.mailLoss {
				continue
			}
			kept.Entries = append(kept.Entries, e)
			if b.Hops != nil {
				kept.Hops = append(kept.Hops, hopAt(b.Hops, i))
			}
		}
		b = kept
	}
	p.mu.Unlock()
	if len(b.Entries) > 0 {
		p.target.HandleMailBatch(b)
	}
	return nil
}

func (p *LocalPeer) isDown() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}
