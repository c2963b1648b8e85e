package core

import (
	"fmt"
	"testing"

	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

func shardedPair(t *testing.T, aShards, bShards int) (*store.Store, *store.Store, *timestamp.Simulated) {
	t.Helper()
	src := timestamp.NewSimulated(1 << 20)
	return store.NewSharded(1, src.ClockAt(1), aShards),
		store.NewSharded(2, src.ClockAt(2), bShards), src
}

func TestResolveShardVectorIdenticalStores(t *testing.T) {
	a, b, _ := shardedPair(t, 16, 16)
	e := a.Update("k", store.Value("v"))
	b.Apply(e)
	cfg := ResolveConfig{Mode: PushPull, Strategy: CompareShardVector}
	st, err := ResolveDifference(cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Transferred() != 0 || st.ShardsRepaired != 0 {
		t.Errorf("identical stores moved %d entries, repaired %d shards", st.Transferred(), st.ShardsRepaired)
	}
}

// TestResolveShardVectorLocalizesDeepDivergence buries one private entry
// under hundreds of shared newer ones: the vector compare must confine the
// walk to the single diverged shard instead of peeling the whole store.
func TestResolveShardVectorLocalizesDeepDivergence(t *testing.T) {
	a, b, src := shardedPair(t, 16, 16)
	a.Update("buried", store.Value("deep"))
	src.Advance(1)
	for i := 0; i < 400; i++ {
		e := a.Update(fmt.Sprintf("hist%03d", i), store.Value("v"))
		b.Apply(e)
		src.Advance(1)
	}
	cfg := ResolveConfig{Mode: PushPull, Strategy: CompareShardVector, BatchSize: 16}
	st, err := ResolveDifference(cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !store.ContentEqual(a, b) {
		t.Fatal("stores differ after shard-vector resolve")
	}
	if _, ok := b.Lookup("buried"); !ok {
		t.Fatal("buried entry not delivered")
	}
	if st.ShardsRepaired != 1 {
		t.Errorf("ShardsRepaired = %d, want 1", st.ShardsRepaired)
	}
	// One shard holds ~25 of the 400 shared entries; a global peel-back
	// of the same scenario walks everything (~800 transfers).
	if st.Transferred() > 120 {
		t.Errorf("shard-vector moved %d entries; divergence not localized", st.Transferred())
	}
	if st.FullCompare {
		t.Error("shard-vector fell back to a full compare")
	}
}

// TestResolveShardVectorMatchesPeelBack runs the same divergence through
// both strategies and checks they repair the identical entry set.
func TestResolveShardVectorMatchesPeelBack(t *testing.T) {
	build := func() (*store.Store, *store.Store) {
		a, b, src := shardedPair(t, 16, 16)
		for i := 0; i < 120; i++ {
			e := a.Update(fmt.Sprintf("hist%03d", i), store.Value("v"))
			if i%10 != 0 { // every 10th entry is missing at b
				b.Apply(e)
			}
			src.Advance(1)
		}
		b.Update("bonly", store.Value("late"))
		return a, b
	}

	applied := func(strategy CompareStrategy) (map[string]bool, *store.Store, *store.Store, ExchangeStats) {
		a, b := build()
		cfg := ResolveConfig{Mode: PushPull, Strategy: strategy, BatchSize: 8}
		st, err := ResolveDifference(cfg, a, b)
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for _, k := range st.AppliedKeys {
			keys[k] = true
		}
		return keys, a, b, st
	}

	sv, sa, sb, svStats := applied(CompareShardVector)
	pb, pa, pbStore, _ := applied(ComparePeelBack)

	if !store.ContentEqual(sa, sb) || !store.ContentEqual(pa, pbStore) {
		t.Fatal("a strategy failed to converge")
	}
	if !store.ContentEqual(sa, pa) {
		t.Fatal("strategies converged to different content")
	}
	if len(sv) != len(pb) {
		t.Fatalf("shard-vector repaired %d keys, peel-back %d", len(sv), len(pb))
	}
	for k := range pb {
		if !sv[k] {
			t.Errorf("key %q repaired by peel-back but not shard-vector", k)
		}
	}
	if svStats.ShardsRepaired == 0 {
		t.Error("shard-vector path not exercised")
	}
}

// TestResolveShardVectorMismatchedCountsNarrows pairs stores with
// different shard counts: both fold their vectors to the smaller count, so
// the resolver localizes the one buried entry to one bucket and converges.
// A 1-shard store folds the pair to one bucket: the whole-store walk.
func TestResolveShardVectorMismatchedCountsNarrows(t *testing.T) {
	for _, counts := range [][2]int{{8, 32}, {64, 16}, {1, 16}} {
		a, b, src := shardedPair(t, counts[0], counts[1])
		a.Update("buried", store.Value("deep"))
		src.Advance(1)
		for i := 0; i < 400; i++ {
			e := a.Update(fmt.Sprintf("hist%03d", i), store.Value("v"))
			b.Apply(e)
			src.Advance(1)
		}
		cfg := ResolveConfig{Mode: PushPull, Strategy: CompareShardVector, BatchSize: 16}
		st, err := ResolveDifference(cfg, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !store.ContentEqual(a, b) {
			t.Fatalf("%d vs %d shards did not converge", counts[0], counts[1])
		}
		if st.ShardsRepaired != 1 || st.FullCompare {
			t.Errorf("%d vs %d shards: ShardsRepaired = %d, full compare %v; want one bucket",
				counts[0], counts[1], st.ShardsRepaired, st.FullCompare)
		}
		// Folded to m buckets, the walk examines about 400/m of the shared
		// entries per side; the whole-store walk (m = 1) all of them.
		m := min(counts[0], counts[1])
		if limit := 2*400/m + 2*16 + 2; st.Transferred() > limit {
			t.Errorf("%d vs %d shards moved %d entries, want at most %d", counts[0], counts[1], st.Transferred(), limit)
		}
	}
}

// TestResolveShardVectorDormantSkew: divergence consisting only of a
// dormancy-skewed death certificate must still terminate: the bucket's walk
// ends when both sides' walks are exhausted.
func TestResolveShardVectorDormantSkew(t *testing.T) {
	const tau1 = 100
	a, b, src := shardedPair(t, 16, 16)
	for i := 0; i < 40; i++ {
		e := a.Update(fmt.Sprintf("hist%03d", i), store.Value("v"))
		b.Apply(e)
		src.Advance(1)
	}
	a.Delete("hist000", []timestamp.SiteID{1})
	src.Advance(tau1 + 10) // dormant at a, absent divergence is invisible live

	cfg := ResolveConfig{Mode: PushPull, Strategy: CompareShardVector, Tau1: tau1, BatchSize: 8}
	st, err := ResolveDifference(cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// The dormant certificate must not propagate (§2.2); the exchange just
	// has to terminate, shipping at most the shared history once.
	if e, ok := b.Get("hist000"); !ok || e.IsDeath() {
		t.Error("dormant certificate propagated to b")
	}
	if st.FullCompare {
		t.Error("dormant-only divergence triggered a full compare")
	}
}

// TestResolveShardVectorSpentBudgetSwapsFull: a 1-shard pair folds to one
// bucket, and 600 entries only a holds outlast that bucket walk's budget
// (an 8-entry probe, then 31 rounds of 16: 504 entries). The conversation
// falls back to the full swap and leaves the stores equal.
func TestResolveShardVectorSpentBudgetSwapsFull(t *testing.T) {
	a, b, src := shardedPair(t, 1, 1)
	for i := 0; i < 600; i++ {
		a.Update(fmt.Sprintf("only-a-%03d", i), store.Value("v"))
		src.Advance(1)
	}
	b.Update("only-b", store.Value("v"))
	cfg := ResolveConfig{Mode: PushPull, Strategy: CompareShardVector, BatchSize: 16}
	st, err := ResolveDifference(cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullCompare || st.ShardsRepaired != 0 {
		t.Errorf("full compare %v, %d buckets repaired; want the full swap and none", st.FullCompare, st.ShardsRepaired)
	}
	if !store.ContentEqual(a, b) {
		t.Fatal("stores differ after the full swap")
	}
	if st.ChecksumsCompared != 1+PeelRounds || st.EntriesApplied != 601 {
		t.Errorf("%d compares, %d applied; want the vector and %d walk rounds, 601 applied",
			st.ChecksumsCompared, st.EntriesApplied, PeelRounds)
	}
}
