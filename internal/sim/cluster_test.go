package sim

import (
	"epidemic/internal/node"
	"epidemic/internal/spatial"
	"epidemic/internal/timestamp"
	"epidemic/internal/topology"
	"fmt"
	"testing"

	"epidemic/internal/core"
	"epidemic/internal/store"
)

func newTestCluster(t *testing.T, mut func(*ClusterConfig)) *Cluster {
	t.Helper()
	cfg := ClusterConfig{
		N:     8,
		Rumor: core.RumorConfig{K: 3, Counter: true, Feedback: true, Mode: core.PushPull},
		Seed:  42,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{N: 1}); err == nil {
		t.Error("N=1 accepted")
	}
}

func TestRumorSpreadsToAllNodes(t *testing.T) {
	c := newTestCluster(t, nil)
	c.Node(0).Update("k", store.Value("v"))
	cycles := c.RunRumorToQuiescence(100)
	if cycles == 0 {
		t.Fatal("no cycles ran")
	}
	got := c.CountWithValue("k", "v")
	if got < c.N()-1 { // rumor can miss a site; allow at most one straggler
		t.Errorf("only %d/%d nodes got the update", got, c.N())
	}
}

func TestAntiEntropyReachesConsistency(t *testing.T) {
	c := newTestCluster(t, nil)
	for i := 0; i < 4; i++ {
		c.Node(i).Update(fmt.Sprintf("k%d", i), store.Value("v"))
	}
	cycles, ok := c.RunAntiEntropyToConsistency(100)
	if !ok {
		t.Fatal("never consistent")
	}
	if cycles == 0 {
		t.Fatal("was already consistent?")
	}
	if !c.Consistent() {
		t.Fatal("Consistent() disagrees")
	}
}

func TestRumorBackedByAntiEntropyAlwaysConverges(t *testing.T) {
	// Rumor with aggressive k=1 may leave residue; a few anti-entropy
	// cycles must finish the job (§1.5).
	c := newTestCluster(t, func(cfg *ClusterConfig) {
		cfg.N = 16
		cfg.Rumor = core.RumorConfig{K: 1, Counter: true, Feedback: true, Mode: core.Push}
	})
	c.Node(3).Update("k", store.Value("v"))
	c.RunRumorToQuiescence(50)
	if _, ok := c.RunAntiEntropyToConsistency(50); !ok {
		t.Fatal("anti-entropy backup failed to converge")
	}
	if got := c.CountWithValue("k", "v"); got != c.N() {
		t.Errorf("%d/%d nodes have the update", got, c.N())
	}
}

func TestDeleteSpreadsAndNothingResurrects(t *testing.T) {
	c := newTestCluster(t, func(cfg *ClusterConfig) {
		cfg.Tau1 = 1000
		cfg.Tau2 = 1000
		cfg.RetentionCount = 2
	})
	c.Node(0).Update("k", store.Value("v"))
	if _, ok := c.RunAntiEntropyToConsistency(50); !ok {
		t.Fatal("initial spread failed")
	}
	c.Node(1).Delete("k")
	if _, ok := c.RunAntiEntropyToConsistency(50); !ok {
		t.Fatal("delete spread failed")
	}
	if got := c.CountDeleted("k"); got != c.N() {
		t.Errorf("%d/%d nodes deleted", got, c.N())
	}
	// Keep gossiping: the item must stay dead (death certificates win).
	for i := 0; i < 10; i++ {
		c.StepAntiEntropy()
	}
	if got := c.CountDeleted("k"); got != c.N() {
		t.Errorf("resurrection: only %d/%d deleted", got, c.N())
	}
}

func TestPartitionHealsViaAntiEntropy(t *testing.T) {
	c := newTestCluster(t, nil)
	c.SetPartition(5, true)
	c.Node(0).Update("k", store.Value("v"))
	c.RunRumorToQuiescence(50)
	if _, ok := c.Node(5).Lookup("k"); ok {
		t.Fatal("partitioned node received update")
	}
	c.SetPartition(5, false)
	if _, ok := c.RunAntiEntropyToConsistency(100); !ok {
		t.Fatal("post-partition convergence failed")
	}
	if _, ok := c.Node(5).Lookup("k"); !ok {
		t.Fatal("healed node missing update")
	}
}

func TestDirectMailWithLossThenRepair(t *testing.T) {
	c := newTestCluster(t, func(cfg *ClusterConfig) {
		cfg.DirectMailOnUpdate = true
		cfg.MailLoss = 0.5
	})
	c.Node(0).Update("k", store.Value("v"))
	before := c.CountWithValue("k", "v")
	if before == c.N() {
		t.Skip("mail got lucky; nothing to repair")
	}
	if _, ok := c.RunAntiEntropyToConsistency(100); !ok {
		t.Fatal("repair failed")
	}
	if got := c.CountWithValue("k", "v"); got != c.N() {
		t.Errorf("%d/%d after repair", got, c.N())
	}
	stats := c.TotalStats()
	if stats.MailSent == 0 {
		t.Error("no mail recorded")
	}
}

func TestAsyncOutboxDirectMailConverges(t *testing.T) {
	// Every node mails through its outbox. The cluster never starts its
	// nodes, so each Update drains the queues it filled before returning:
	// every replica holds the key at once, and nothing is left to flush.
	c := newTestCluster(t, func(cfg *ClusterConfig) {
		cfg.DirectMailOnUpdate = true
	})
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		c.Node(i).Update(key, store.Value("v"))
		if got := c.CountWithValue(key, "v"); got != c.N() {
			t.Errorf("%s: %d/%d nodes when Update returned", key, got, c.N())
		}
	}
	if !c.FlushMail() {
		t.Fatal("outbox flush timed out")
	}
	stats := c.TotalStats()
	if stats.OutboxEnqueued == 0 {
		t.Error("no outbox enqueues recorded")
	}
	if stats.OutboxBatches == 0 {
		t.Error("no outbox batches recorded")
	}
	if stats.OutboxDepth != 0 {
		t.Errorf("outbox depth %d after flush", stats.OutboxDepth)
	}
}

func TestStepGCDropsCertificates(t *testing.T) {
	c := newTestCluster(t, func(cfg *ClusterConfig) {
		cfg.Tau1 = 5
		cfg.Tau2 = 5
		cfg.RetentionCount = 1
	})
	c.Node(0).Update("k", store.Value("v"))
	c.RunAntiEntropyToConsistency(50)
	c.Node(0).Delete("k")
	c.RunAntiEntropyToConsistency(50)
	c.Clock().Advance(100)
	c.StepGC()
	total := 0
	for i := 0; i < c.N(); i++ {
		total += len(c.Node(i).Store().DeathCertificates())
	}
	if total != 0 {
		t.Errorf("%d certificates survived far beyond tau1+tau2", total)
	}
}

func TestClusterAccessors(t *testing.T) {
	c := newTestCluster(t, nil)
	if c.N() != 8 {
		t.Errorf("N = %d", c.N())
	}
	if c.Cycle() != 0 {
		t.Errorf("Cycle = %d", c.Cycle())
	}
	c.StepRumor()
	if c.Cycle() != 1 {
		t.Errorf("Cycle = %d after step", c.Cycle())
	}
	if c.Clock() == nil || c.Node(0) == nil {
		t.Error("accessors nil")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 {
		t.Errorf("Summary = %+v", s)
	}
	s = Summarize([]float64{5})
	if s.Median != 5 || s.Std != 0 {
		t.Errorf("single-sample Summary = %+v", s)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Errorf("empty Summary = %+v", got)
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("Mean wrong")
	}
	odd := Summarize([]float64{3, 1, 2})
	if odd.Median != 2 {
		t.Errorf("odd median = %v", odd.Median)
	}
}

// With badly skewed clocks the algorithms "work formally but not
// practically" (§1.1): replicas still converge to identical content, but
// a fast-clocked site's update beats a genuinely later write from a
// slow-clocked site.
func TestClockSkewConvergesButMisorders(t *testing.T) {
	src := timestamp.NewSimulated(1000)
	mkNode := func(site timestamp.SiteID, skew int64) *node.Node {
		n, err := node.New(node.Config{
			Site:  site,
			Clock: src.SkewedClockAt(site, skew),
			Seed:  int64(site),
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	fast := mkNode(1, +500) // clock runs half a kilotick ahead
	slow := mkNode(2, -500)
	fast.SetPeers([]node.Peer{node.NewLocalPeer(slow, 1)})
	slow.SetPeers([]node.Peer{node.NewLocalPeer(fast, 2)})

	fast.Update("k", store.Value("from-fast"))
	src.Advance(100)
	slow.Update("k", store.Value("from-slow")) // genuinely later

	if err := fast.StepAntiEntropy(); err != nil {
		t.Fatal(err)
	}
	// Formally correct: both replicas agree...
	if !store.ContentEqual(fast.Store(), slow.Store()) {
		t.Fatal("replicas diverged under skew")
	}
	// ...practically wrong: the earlier write won.
	v, _ := slow.Lookup("k")
	if string(v) != "from-fast" {
		t.Fatalf("expected the fast clock's earlier write to win, got %q", v)
	}
}

// skewedCluster is three replicas whose clocks disagree: site 0 runs 500
// ticks ahead of the shared time, site 1 500 behind, site 2 on time. key
// is written through the fast site and spread everywhere, so the slow site
// holds it at a stamp a kilotick ahead of its own clock.
func skewedCluster(t *testing.T, key string) *Cluster {
	t.Helper()
	c := newTestCluster(t, func(cfg *ClusterConfig) {
		cfg.N = 3
		cfg.ClockSkew = []int64{+500, -500}
	})
	c.Node(0).Update(key, store.Value("from-fast"))
	quiesce(t, c)
	if got := c.CountWithValue(key, "from-fast"); got != c.N() {
		t.Fatalf("first write reached %d/%d replicas", got, c.N())
	}
	c.Clock().Advance(100)
	return c
}

// quiesce runs rumors out, then anti-entropy to consistency.
func quiesce(t *testing.T, c *Cluster) {
	t.Helper()
	c.RunRumorToQuiescence(100)
	if _, ok := c.RunAntiEntropyToConsistency(100); !ok {
		t.Fatal("replicas never converged")
	}
}

// Unlike TestClockSkewConvergesButMisorders' concurrent writes, a SET
// through a slow-clocked site that already holds the key is causally
// later: it must win everywhere, not be acknowledged and then lost to the
// value it replaced.
func TestSkewedSetAfterHeldFastSetWins(t *testing.T) {
	c := skewedCluster(t, "k")
	c.Node(1).Update("k", store.Value("from-slow"))
	quiesce(t, c)
	if got := c.CountWithValue("k", "from-slow"); got != c.N() {
		t.Errorf("the later SET holds at %d/%d replicas", got, c.N())
	}
}

// A DEL through the slow site of a key it holds from the fast site must
// delete it everywhere; the held value must not resurrect.
func TestSkewedDeleteAfterHeldFastSetHolds(t *testing.T) {
	c := skewedCluster(t, "k")
	c.Node(1).Delete("k")
	quiesce(t, c)
	for i := 0; i < 10; i++ {
		c.StepAntiEntropy()
	}
	if got := c.CountDeleted("k"); got != c.N() {
		t.Errorf("the DEL holds at %d/%d replicas: the key resurrected", got, c.N())
	}
}

func TestClusterSpatialWiring(t *testing.T) {
	nw, err := topology.Line(8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		N:           8,
		Rumor:       core.RumorConfig{K: 4, Counter: true, Feedback: true, Mode: core.PushPull},
		Network:     nw,
		SpatialForm: spatial.FormPaper,
		SpatialA:    2,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Node(0).Update("k", store.Value("v"))
	if _, ok := c.RunAntiEntropyToConsistency(100); !ok {
		t.Fatal("spatial cluster never converged")
	}
	// Size mismatch is rejected.
	if _, err := NewCluster(ClusterConfig{
		N: 4, Network: nw, SpatialForm: spatial.FormPaper, SpatialA: 2,
		Rumor: core.RumorConfig{K: 2, Counter: true, Feedback: true, Mode: core.PushPull},
	}); err == nil {
		t.Error("size mismatch accepted")
	}
	// Bad exponent is rejected.
	if _, err := NewCluster(ClusterConfig{
		N: 8, Network: nw, SpatialForm: spatial.FormPaper, SpatialA: -1,
		Rumor: core.RumorConfig{K: 2, Counter: true, Feedback: true, Mode: core.PushPull},
	}); err == nil {
		t.Error("bad exponent accepted")
	}
}

// §1.5: the combined peel-back/rumor scheme "behaves well when a network
// partitions and rejoins" — both sides accumulate updates independently;
// after the heal, activity-ordered exchanges converge without shipping
// the whole shared history.
func TestActivityExchangeHealsPartition(t *testing.T) {
	c := newTestCluster(t, func(cfg *ClusterConfig) { cfg.N = 6 })
	// Shared history at every replica.
	for i := 0; i < 30; i++ {
		c.Node(0).Update(fmt.Sprintf("hist%02d", i), store.Value("old"))
	}
	if _, ok := c.RunAntiEntropyToConsistency(60); !ok {
		t.Fatal("history never spread")
	}
	// Partition site 5; both sides write.
	c.SetPartition(5, true)
	c.Node(5).Update("island", store.Value("i"))
	c.Node(1).Update("mainland", store.Value("m"))
	for i := 0; i < 5; i++ {
		c.StepActivityExchange(4)
	}
	if _, ok := c.Node(5).Lookup("mainland"); ok {
		t.Fatal("partition leaked")
	}
	c.SetPartition(5, false)
	shipped := 0
	for i := 0; i < 20 && !c.Consistent(); i++ {
		shipped += c.StepActivityExchange(4)
	}
	if !c.Consistent() {
		t.Fatal("activity exchange did not heal the partition")
	}
	// The fresh divergence (2 keys) must not cost a full history replay
	// per conversation: allow generous slack for probing batches, but far
	// below everyone shipping all ~32 entries to everyone.
	if shipped > 6*32*3 {
		t.Errorf("healing shipped %d entries; activity order should keep it small", shipped)
	}
}

// The per-cycle total must be the sum of per-node counts regardless of the
// randomized visit order: two clusters with the same seed report identical
// totals cycle by cycle, and the totals reconcile with the nodes' own
// EntriesSent statistics.
func TestStepActivityExchangeIndexedTotals(t *testing.T) {
	build := func() *Cluster {
		c := newTestCluster(t, func(cfg *ClusterConfig) { cfg.N = 6 })
		for i := 0; i < 6; i++ {
			c.Node(i).Update(fmt.Sprintf("k%d", i), store.Value("v"))
		}
		return c
	}
	a, b := build(), build()
	var totalA, totalB int
	for i := 0; i < 10; i++ {
		totalA += a.StepActivityExchange(4)
		totalB += b.StepActivityExchange(4)
	}
	if totalA != totalB {
		t.Errorf("same-seed clusters shipped %d vs %d entries", totalA, totalB)
	}
	if totalA == 0 {
		t.Fatal("no entries shipped")
	}
	if got := int(a.TotalStats().EntriesSent); got != totalA {
		t.Errorf("StepActivityExchange total %d != summed node stats %d", totalA, got)
	}
}
