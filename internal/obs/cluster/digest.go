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
	// Wire and UDP fast-path counters (zero on sim nodes).
	WireMsgsBinary int64 `json:"wire_msgs_binary"`
	UDPPushes      int64 `json:"udp_pushes"`
	UDPFallbacks   int64 `json:"udp_fallbacks"`
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
// every digest, just over more exchanges.
const DefaultShareLimit = 64

// Directory is one node's view of the cluster digest set: its own digest
// plus the newest digest it has heard for every other site. All methods
// are safe for concurrent use and nil-safe — a nil *Directory records
// nothing and shares nothing, so disabled digests cost zero wire bytes
// (the same pattern as the nil trace.Tracer).
type Directory struct {
	self       int32
	shareLimit int

	mu      sync.RWMutex
	digests map[int32]Digest
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

// Merge folds digests heard from a peer into the view: newest stamp wins
// per site, and the node stays authoritative for its own digest (a copy
// of it bouncing back from a peer can never overwrite the local one).
// It returns the number of digests that changed the view.
func (d *Directory) Merge(in []Digest) int {
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
			d.digests[dg.Site] = dg
			changed++
		}
	}
	d.mu.Unlock()
	return changed
}

// Share returns the digests to piggyback on one outgoing exchange: this
// node's own digest first (the one fact only it can originate), then the
// freshest others, capped at the share limit. nil when the directory is
// nil or empty — nil piggybacks encode to zero wire bytes.
func (d *Directory) Share() []Digest {
	if d == nil {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.digests) == 0 {
		return nil
	}
	out := make([]Digest, 0, min(len(d.digests), d.shareLimit))
	if self, ok := d.digests[d.self]; ok {
		out = append(out, self)
	}
	rest := make([]Digest, 0, len(d.digests))
	for site, dg := range d.digests {
		if site == d.self {
			continue
		}
		rest = append(rest, dg)
	}
	// Freshest first, site as the deterministic tiebreak.
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].Stamp != rest[j].Stamp {
			return rest[i].Stamp > rest[j].Stamp
		}
		return rest[i].Site < rest[j].Site
	})
	for _, dg := range rest {
		if len(out) >= d.shareLimit {
			break
		}
		out = append(out, dg)
	}
	return out
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
// out). The node's own digest is never pruned. Returns the count dropped.
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
			dropped++
		}
	}
	d.mu.Unlock()
	return dropped
}
