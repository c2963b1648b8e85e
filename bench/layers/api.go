// Package layers holds the benchmark's only contact with the program's Go
// API: the snapshot writer the rejoin workload starts from, and the
// in-process suite that times calls into each layer's exported functions.
//
// This file is the adapter. Every import of the epidemic module anywhere
// under bench/ is here, so a refactor of the program's API costs a fix to
// this one file; suite.go and the harness speak only the names below.
package layers

import (
	"io"
	"math/rand"
	"time"

	"epidemic"
	"epidemic/internal/analytic"
	"epidemic/internal/core"
	"epidemic/internal/store"
)

type (
	entry     = epidemic.Entry
	replica   = epidemic.Store
	node      = epidemic.Node
	stamp     = epidemic.Timestamp
	mailBatch = epidemic.MailBatch
	wireStats = epidemic.WireStats

	resolveConfig = epidemic.ResolveConfig
)

// peelStart is the bound that starts a peel-back walk at the newest entry.
var peelStart = store.PeelStart

// daemonTau mirrors how gossipd derives the recent-update window from its
// anti-entropy period (20 periods of 500 ms), so the suite's anti-entropy
// rows compare the way the benchmarked daemons do.
const daemonTau = int64(20 * 500 * time.Millisecond)

// tau1 is gossipd's default death-certificate window.
const tau1 = int64(time.Hour)

// pastClock issues stamps starting a fixed interval in the past, one
// microsecond apart: state that was written long ago, outside every
// recent-update window, in a known order.
type pastClock struct {
	site epidemic.SiteID
	now  int64
}

func newPastClock(site int, ago time.Duration) *pastClock {
	return &pastClock{site: epidemic.SiteID(site), now: time.Now().Add(-ago).UnixNano()}
}

func (c *pastClock) Now() stamp {
	c.now += int64(time.Microsecond)
	return stamp{Time: c.now, Site: c.site}
}

func (c *pastClock) Read() int64 { return c.now }

// newReplica builds an empty store on the wall clock.
func newReplica(site int) *replica {
	return epidemic.NewStore(epidemic.SiteID(site), epidemic.WallClock(epidemic.SiteID(site)))
}

// snapshotSite stamps the entries every replica starts from; no benchmarked
// daemon has this ID.
const snapshotSite = 9999

// oldEntries returns n entries k(i) -> v(i) stamped ten minutes ago, oldest
// first: key index 0 carries the oldest stamp.
func oldEntries(n int, key func(int) string, val func(int) string) []entry {
	return oldEntriesFrom(snapshotSite, 10*time.Minute, n, key, val)
}

func oldEntriesFrom(site int, ago time.Duration, n int, key func(int) string, val func(int) string) []entry {
	src := epidemic.NewStore(epidemic.SiteID(site), newPastClock(site, ago))
	out := make([]entry, n)
	for i := range out {
		out[i] = src.Update(key(i), epidemic.Value(val(i)))
	}
	return out
}

func applyAll(s *replica, entries []entry) {
	for _, e := range entries {
		s.Apply(e)
	}
}

// WriteSnapshot writes the store snapshot file a rejoin cluster boots from:
// n keys key(i) -> val(i) with stamps ten minutes old, index 0 the oldest.
func WriteSnapshot(path string, n int, key func(int) string, val func(int) string) error {
	s := newReplica(snapshotSite)
	applyAll(s, oldEntries(n, key, val))
	return s.SaveFile(path)
}

func saveFile(s *replica, path string) error { return s.SaveFile(path) }

func loadFile(s *replica, path string) (int, error) { return s.LoadFile(path) }

// daemonResolve is the anti-entropy configuration gossipd runs.
func daemonResolve(strategy epidemic.CompareStrategy) epidemic.ResolveConfig {
	return epidemic.ResolveConfig{
		Mode:              epidemic.PushPull,
		Strategy:          strategy,
		Tau:               daemonTau,
		Tau1:              tau1,
		ReactivateDormant: true,
	}
}

func resolveRecent() epidemic.ResolveConfig   { return daemonResolve(epidemic.CompareRecent) }
func resolveShardVec() epidemic.ResolveConfig { return daemonResolve(epidemic.CompareShardVector) }

func resolve(cfg epidemic.ResolveConfig, a, b *replica) error {
	_, err := epidemic.ResolveDifference(cfg, a, b)
	return err
}

// newNode builds a node configured as gossipd configures it, with no
// background daemons (the suite steps it by hand). mail turns direct mail
// on update on; the outbox runs at its defaults either way.
func newNode(site int, mail bool) (*node, error) {
	return epidemic.NewNode(epidemic.NodeConfig{
		Site:               epidemic.SiteID(site),
		Rumor:              epidemic.RumorConfig{K: 3, Counter: true, Feedback: true, Mode: epidemic.PushPull},
		Resolve:            resolveRecent(),
		DirectMailOnUpdate: mail,
		Redistribution:     epidemic.RedistributeRumor,
		Tau1:               tau1,
		Tau2:               int64(24 * time.Hour),
		RetentionCount:     2,
	})
}

// linkLocal makes each of targets an in-process peer of n.
func linkLocal(n *node, targets ...*node) {
	peers := make([]epidemic.Peer, len(targets))
	for i, t := range targets {
		peers[i] = epidemic.NewLocalPeer(t, int64(i+1))
	}
	n.SetPeers(peers)
}

// instrument wires n into a fresh metrics registry the way gossipd does:
// counters and gauges, the event ring, and the propagation tracker.
func instrument(n *node) *epidemic.MetricsRegistry {
	reg := epidemic.NewMetricsRegistry()
	prop := epidemic.NewPropagationTracker(1e-9, reg.Histogram(epidemic.MetricUpdatePropagation, "propagation delay", nil))
	n.SetOnEvent(epidemic.InstrumentNode(reg, n, epidemic.ObserveOptions{
		Ring:           epidemic.NewEventRing(0),
		Propagation:    prop,
		SecondsPerUnit: 1e-9,
		WallTime:       true,
	}))
	return reg
}

func writePrometheus(reg *epidemic.MetricsRegistry) error { return reg.WritePrometheus(io.Discard) }

// wireLink is a node served over loopback TCP and a client peer dialled to
// it, as two daemons see each other.
type wireLink struct {
	srv   *epidemic.TCPServer
	peer  *epidemic.TCPPeer
	stats *wireStats
}

func newWireLink(target *node, udp bool) (*wireLink, error) {
	srv, err := epidemic.ServeTCPWith(target, "127.0.0.1:0", epidemic.TCPServerOptions{Codec: "binary", DisableUDP: !udp})
	if err != nil {
		return nil, err
	}
	stats := &wireStats{}
	peer := epidemic.NewTCPPeerWith(target.Site(), srv.Addr(), epidemic.TCPPeerOptions{
		Timeout: 10 * time.Second, PoolSize: 2, Stats: stats, Codec: "binary", UDP: udp,
	})
	return &wireLink{srv: srv, peer: peer, stats: stats}, nil
}

func (l *wireLink) close() {
	_ = l.peer.Close()
	_ = l.srv.Close()
}

// bytesSent is everything the client side has put on the wire, TCP and UDP.
func (l *wireLink) bytesSent() int64 {
	s := l.stats.Snapshot()
	return s.BytesSent + s.UDPBytesSent
}

func (l *wireLink) antiEntropy(local *replica) error {
	_, err := l.peer.AntiEntropy(resolveRecent(), local, nil)
	return err
}

func (l *wireLink) mailBatch(entries []entry) error {
	return l.peer.MailBatch(mailBatch{Entries: entries})
}

func (l *wireLink) pushRumors(entries []entry) error {
	_, err := l.peer.PushRumors(entries, nil)
	return err
}

// hotList is the rumor hot list with gossipd's rumor variant.
func newHotList() *core.HotList {
	return core.NewHotList(core.RumorConfig{K: 3, Counter: true, Feedback: true, Mode: core.PushPull}, rand.New(rand.NewSource(1)))
}

// ExpectedPushRounds is the analytic yardstick printed beside the measured
// rounds-to-last: the expected number of cycles for a single update to
// reach all n sites by push alone (the paper's log2 n + ln n). Push-pull
// with feedback, which the daemons run, should need no more; the optimum
// Mercier, Hayez and Matos derive for push-pull is lower still.
func ExpectedPushRounds(n int) float64 { return analytic.ExpectedPushCycles(n) }
