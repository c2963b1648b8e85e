package sim

import (
	"fmt"
	"testing"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/store"
)

// TestClusterShardVectorStrategyConverges drives a full in-process cluster
// whose anti-entropy resolves via the per-shard vector compare: scattered
// divergence, deletions included, must still reach a consistent state.
func TestClusterShardVectorStrategyConverges(t *testing.T) {
	c := shardVectorCluster(t)
	if cycles, ok := c.RunAntiEntropyToConsistency(60); !ok {
		t.Fatalf("shard-vector cluster not consistent after %d cycles", cycles)
	}
	if c.CountDeleted("site0-k0") != c.N() {
		t.Error("deletion did not spread under the shard-vector strategy")
	}
	if c.TotalStats().FullCompares != 0 {
		t.Error("shard-vector runs degraded to full compares")
	}
}

// TestClusterShardVectorStrategyDeterministic: the one bucket ladder walks
// its buckets in order on the caller, so two runs of one seed report the
// same stats.
func TestClusterShardVectorStrategyDeterministic(t *testing.T) {
	var runs [2]node.Stats
	for i := range runs {
		c := shardVectorCluster(t)
		c.RunAntiEntropyToConsistency(60)
		runs[i] = c.TotalStats()
	}
	if runs[0] != runs[1] {
		t.Errorf("same seed, different stats:\n%+v\n%+v", runs[0], runs[1])
	}
}

// shardVectorCluster is six replicas resolving by the shard-vector
// strategy, each with five keys of its own aged past the recent window,
// and one of them deleted.
func shardVectorCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		N: 6,
		Resolve: core.ResolveConfig{
			Mode: core.PushPull, Strategy: core.CompareShardVector,
			Tau: 2, Tau1: 1 << 40, BatchSize: 8,
		},
		Tau1: 1 << 40, Tau2: 1 << 41,
		StoreShards: 16,
		Seed:        99,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.N(); i++ {
		for j := 0; j < 5; j++ {
			c.Node(i).Update(fmt.Sprintf("site%d-k%d", i, j), store.Value("v"))
		}
	}
	c.Clock().Advance(50) // age the divergence past the recent window
	c.Node(0).Delete(fmt.Sprintf("site%d-k%d", 0, 0))
	return c
}
