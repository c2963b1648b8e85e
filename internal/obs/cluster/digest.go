// Package cluster implements the gossip-borne cluster observatory: each
// node periodically snapshots a compact Digest of its own health and the
// digest set spreads epidemically, piggybacked on the anti-entropy and
// rumor-offer exchanges the nodes already run. Any single replica then
// holds an (eventually consistent) view of the whole cluster — the same
// O(log n)-round push-pull dissemination bound the data itself enjoys —
// without a central collector or a scrape of every node.
//
// The package is deliberately self-contained (stdlib only, no node or
// transport imports) so the node runtime, the wire codec, the simulator
// and the daemons can all share it without cycles. Times are abstract
// int64 stamp units — wall-clock nanoseconds on daemons, simulated ticks
// in the sim cluster — exactly like the store's timestamps.
package cluster

import (
	"cmp"
	"slices"
	"sort"
	"sync"
)

// LatencySummary compresses one exchange-latency histogram into the three
// numbers the status table needs. Quantiles are in seconds and only valid
// when Count > 0 (a zero summary means "no exchanges observed yet", never
// NaN — the digests travel as JSON too).
type LatencySummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// Digest is one node's self-reported health snapshot. Stamp orders
// versions of the same site's digest (newest wins on merge); every other
// field is informational. The struct is flat and fixed-shape on purpose:
// it has a hand-rolled binary encoding in the transport codec, so fields
// are only added, never reordered.
type Digest struct {
	// Site is the reporting replica; Stamp the digest's creation time in
	// stamp units — the merge key.
	Site  int32 `json:"site"`
	Stamp int64 `json:"stamp"`
	// StartedAt is the node's start time in stamp units (uptime = now -
	// StartedAt at the reader).
	StartedAt int64 `json:"started_at"`
	// StoreKeys and Checksum describe the replica database: key count
	// (death certificates included) and the live checksum — matching
	// checksums across fresh digests mean the cluster has converged.
	StoreKeys int64  `json:"store_keys"`
	Checksum  uint64 `json:"checksum"`
	// HotRumors, Peers and Members summarise the epidemic topology as this
	// node sees it.
	HotRumors int64 `json:"hot_rumors"`
	Peers     int64 `json:"peers"`
	Members   int64 `json:"members"`
	// AERuns and RumorRuns count protocol rounds executed since start.
	AERuns    int64 `json:"ae_runs"`
	RumorRuns int64 `json:"rumor_runs"`
	// WireMsgsBinary counts wire round trips (zero on sim nodes).
	WireMsgsBinary int64 `json:"wire_msgs_binary"`
	// Residue and TLastSeconds are the node's view of the paper's
	// convergence observables. A lone replica cannot count infections at
	// other sites, so its Residue is a checksum proxy: the fraction of
	// fresh remote digests disagreeing with its own database checksum
	// (0 = converged from this node's viewpoint). TLastSeconds is the
	// largest origination-to-local-apply delay its propagation tracker
	// has seen, in seconds.
	Residue      float64 `json:"residue"`
	TLastSeconds float64 `json:"t_last_seconds"`
	// LastAE is the stamp-unit time of the last successful anti-entropy
	// conversation this node initiated; 0 = none yet.
	LastAE int64 `json:"last_ae"`
	// AntiEntropy and Rumor summarise the per-mechanism exchange-latency
	// histograms (p50/p99 in seconds).
	AntiEntropy LatencySummary `json:"anti_entropy"`
	Rumor       LatencySummary `json:"rumor"`
}

// DefaultShareLimit caps the digests piggybacked on one exchange so the
// envelope stays bounded on large clusters; the epidemic still spreads
// every digest, just over more exchanges. It caps the per-peer delta
// ShareTo returns, which in steady state is far smaller: a digest crosses
// each peer link once per version.
const DefaultShareLimit = 64

// Directory is one node's view of the cluster digest set: its own digest
// plus the newest digest it has heard for every other site, and, per peer
// site, the newest stamp of each site's digest that peer is known to hold.
// All methods are safe for concurrent use and nil-safe — a nil *Directory
// records nothing and shares nothing, so disabled digests cost zero wire
// bytes (the same pattern as the nil trace.Tracer).
type Directory struct {
	self       int32
	shareLimit int

	mu      sync.RWMutex
	digests map[int32]Digest
	// held[p][s] is the newest stamp of site s's digest that peer p is
	// known to hold: p sent it to us, or we sent it to p on a round trip
	// that succeeded. ShareTo(p) offers only digests newer than that.
	held map[int32]map[int32]int64
}

// NewDirectory builds a directory for the given site. shareLimit bounds
// the digests attached to one exchange (<= 0 selects DefaultShareLimit).
func NewDirectory(self int32, shareLimit int) *Directory {
	if shareLimit <= 0 {
		shareLimit = DefaultShareLimit
	}
	return &Directory{
		self:       self,
		shareLimit: shareLimit,
		digests:    make(map[int32]Digest),
		held:       make(map[int32]map[int32]int64),
	}
}

// Self returns the directory's own site ID (0 on a nil directory).
func (d *Directory) Self() int32 {
	if d == nil {
		return 0
	}
	return d.self
}

// SetSelf installs this node's freshly built digest. The digest's Site is
// forced to the directory's own site; callers only fill the payload.
func (d *Directory) SetSelf(dg Digest) {
	if d == nil {
		return
	}
	dg.Site = d.self
	d.mu.Lock()
	d.digests[d.self] = dg
	d.mu.Unlock()
}

// Merge folds digests heard from peer into the view: newest stamp wins
// per site, and the node stays authoritative for its own digest (a copy
// of it bouncing back from a peer can never overwrite the local one).
// peer is recorded as holding every digest in in, so none is echoed back
// to it. A winning digest whose StartedAt differs from the one it replaces
// means its site restarted with an empty view: what that site was known
// to hold is forgotten, and its next conversation gets the full view.
// It returns the number of digests that changed the view.
func (d *Directory) Merge(peer int32, in []Digest) int {
	if d == nil || len(in) == 0 {
		return 0
	}
	changed := 0
	d.mu.Lock()
	for _, dg := range in {
		if dg.Site == d.self {
			continue
		}
		if cur, ok := d.digests[dg.Site]; !ok || dg.Stamp > cur.Stamp {
			if ok && dg.StartedAt != cur.StartedAt {
				delete(d.held, dg.Site)
			}
			d.digests[dg.Site] = dg
			changed++
		}
	}
	d.noteHeld(peer, in)
	d.mu.Unlock()
	return changed
}

// Delivered records that peer now holds every digest in sent: call it once
// the round trip that carried them has succeeded.
func (d *Directory) Delivered(peer int32, sent []Digest) {
	if d == nil || len(sent) == 0 {
		return
	}
	d.mu.Lock()
	d.noteHeld(peer, sent)
	d.mu.Unlock()
}

// noteHeld raises peer's held stamps to those of dgs. d.mu must be held.
func (d *Directory) noteHeld(peer int32, dgs []Digest) {
	if peer == d.self {
		return
	}
	held := d.held[peer]
	if held == nil {
		held = make(map[int32]int64, len(d.digests))
		d.held[peer] = held
	}
	for _, dg := range dgs {
		if stamp, ok := held[dg.Site]; !ok || dg.Stamp > stamp {
			held[dg.Site] = dg.Stamp
		}
	}
}

// ShareTo returns the digests to piggyback on one exchange with peer: the
// ones newer than what peer is known to hold, this node's own digest first
// (the one fact only it can originate), then the freshest others, capped
// at the share limit. nil when peer already holds the whole view — the
// steady state between digest refreshes, which costs no allocation — and
// when the directory is nil; nil piggybacks encode to one zero byte.
func (d *Directory) ShareTo(peer int32) []Digest {
	if d == nil {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	held := d.held[peer]
	lacks := func(dg Digest) bool {
		stamp, ok := held[dg.Site]
		return dg.Site != peer && (!ok || dg.Stamp > stamp)
	}
	var out []Digest
	if self, ok := d.digests[d.self]; ok && lacks(self) {
		out = append(out, self)
	}
	first := len(out)
	for site, dg := range d.digests {
		if site != d.self && lacks(dg) {
			out = append(out, dg)
		}
	}
	// Freshest first, site as the deterministic tiebreak.
	slices.SortFunc(out[first:], func(a, b Digest) int {
		if c := cmp.Compare(b.Stamp, a.Stamp); c != 0 {
			return c
		}
		return cmp.Compare(a.Site, b.Site)
	})
	return out[:min(len(out), d.shareLimit)]
}

// Snapshot returns every digest in the view, sorted by site.
func (d *Directory) Snapshot() []Digest {
	if d == nil {
		return nil
	}
	d.mu.RLock()
	out := make([]Digest, 0, len(d.digests))
	for _, dg := range d.digests {
		out = append(out, dg)
	}
	d.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Get returns the digest for one site.
func (d *Directory) Get(site int32) (Digest, bool) {
	if d == nil {
		return Digest{}, false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	dg, ok := d.digests[site]
	return dg, ok
}

// Len returns the number of sites in the view.
func (d *Directory) Len() int {
	if d == nil {
		return 0
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.digests)
}

// Prune drops digests whose stamp is older than now-ttl — the TTL aging
// that eventually forgets departed nodes (their digest stops refreshing,
// goes stale, gets flagged by the stall detector, and is finally aged
// out). The node's own digest is never pruned; a pruned site is also
// forgotten as a peer, so if it returns it gets the full view. Returns the
// count dropped.
func (d *Directory) Prune(now, ttl int64) int {
	if d == nil || ttl <= 0 {
		return 0
	}
	dropped := 0
	d.mu.Lock()
	for site, dg := range d.digests {
		if site == d.self {
			continue
		}
		if now-dg.Stamp > ttl {
			delete(d.digests, site)
			delete(d.held, site)
			for _, held := range d.held {
				delete(held, site)
			}
			dropped++
		}
	}
	d.mu.Unlock()
	return dropped
}
