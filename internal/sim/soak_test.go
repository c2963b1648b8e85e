package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"epidemic/internal/core"
	"epidemic/internal/store"
)

// TestChaosSoak runs a cluster through an adversarial schedule — random
// updates and deletes, random partitions, random GC, mail loss — and then
// quiesces. The single postcondition is the paper's: with gossip allowed
// to finish, every replica converges to identical content and deleted
// items stay dead.
func TestChaosSoak(t *testing.T) {
	const (
		n      = 12
		cycles = 150
	)
	c, err := NewCluster(ClusterConfig{
		N:     n,
		Rumor: core.RumorConfig{K: 3, Counter: true, Feedback: true, Mode: core.PushPull},
		Resolve: core.ResolveConfig{
			Mode:              core.PushPull,
			Strategy:          core.CompareFull,
			Tau1:              1 << 30, // certificates never dormant during the soak
			ReactivateDormant: true,
		},
		DirectMailOnUpdate: true,
		MailLoss:           0.3,
		Redistribution:     core.RedistributeRumor,
		Tau1:               1 << 30,
		Tau2:               1 << 30,
		RetentionCount:     3,
		Seed:               1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	partitioned := -1
	deleted := make(map[string]bool)

	for cycle := 0; cycle < cycles; cycle++ {
		// Random churn: a write or delete at a random reachable site.
		site := rng.Intn(n)
		if site == partitioned {
			site = (site + 1) % n
		}
		key := fmt.Sprintf("key%02d", rng.Intn(25))
		if rng.Float64() < 0.15 {
			c.Node(site).Delete(key)
			deleted[key] = true
		} else {
			c.Node(site).Update(key, store.Value(fmt.Sprintf("v%d", cycle)))
			delete(deleted, key)
		}

		// Random partition churn.
		switch {
		case partitioned < 0 && rng.Float64() < 0.1:
			partitioned = rng.Intn(n)
			c.SetPartition(partitioned, true)
		case partitioned >= 0 && rng.Float64() < 0.2:
			c.SetPartition(partitioned, false)
			partitioned = -1
		}

		c.StepRumor()
		c.StepAntiEntropy()
		if rng.Float64() < 0.2 {
			c.StepGC()
		}
	}

	// Heal and quiesce.
	if partitioned >= 0 {
		c.SetPartition(partitioned, false)
	}
	if _, ok := c.RunAntiEntropyToConsistency(300); !ok {
		t.Fatal("soak did not converge after quiescing")
	}
	// Deleted keys stay dead everywhere. (A later re-update removes the
	// key from `deleted`, so every remaining entry must be gone.)
	for key := range deleted {
		if got := c.CountDeleted(key); got != n {
			t.Errorf("key %s resurrected at %d replicas", key, n-got)
		}
	}
}

// TestSilentMailLossRepairedByAntiEntropy: mail lost without a trace —
// LocalPeer's loss, and mail to a partitioned site, both return nil — is
// never re-hotted, since no origin learns of it and every receiver knows
// the sender. Only anti-entropy finds it, so a cluster that missed a
// partition's worth of writes converges at anti-entropy's pace; it must
// still converge within a fixed cycle budget on every seed.
func TestSilentMailLossRepairedByAntiEntropy(t *testing.T) {
	const (
		n, cut, writes = 12, 5, 40
		seeds          = 20
		aeEvery        = 5  // one anti-entropy cycle per this many rumor cycles
		budget         = 20 // rumor cycles
	)
	total, worst := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		c := newTestCluster(t, func(cfg *ClusterConfig) {
			cfg.N = n
			cfg.DirectMailOnUpdate = true
			cfg.MailLoss = 0.3
			cfg.Redistribution = core.RedistributeRumor
			cfg.Seed = seed
		})
		rng := rand.New(rand.NewSource(seed))
		c.SetPartition(cut, true)
		for i := 0; i < writes; i++ {
			site := rng.Intn(n - 1)
			if site >= cut {
				site++
			}
			c.Node(site).Update(fmt.Sprintf("k%02d", rng.Intn(30)), store.Value(fmt.Sprintf("v%d", i)))
		}
		c.SetPartition(cut, false)
		cycles := 0
		for !c.Consistent() {
			if cycles == budget {
				t.Fatalf("seed %d: replicas still differ after %d cycles", seed, budget)
			}
			cycles++
			c.StepRumor()
			if cycles%aeEvery == 0 {
				c.StepAntiEntropy()
			}
		}
		total += cycles
		worst = max(worst, cycles)
	}
	t.Logf("cycles to consistency over %d seeds: mean %.2f, worst %d", seeds, float64(total)/seeds, worst)
}
