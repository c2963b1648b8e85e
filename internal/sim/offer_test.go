package sim

import (
	"fmt"
	"testing"

	"epidemic/internal/core"
	"epidemic/internal/store"
)

// rumorEpidemic drives a rumor-only cluster through updates, deletes and
// one death-certificate reactivation, returning the rounds to quiescence of
// each phase. The sequence is fully determined by the cluster seed.
func rumorEpidemic(t *testing.T) (c *Cluster, spread, reactivation int) {
	t.Helper()
	c = newTestCluster(t, func(cfg *ClusterConfig) {
		cfg.N = 32
		cfg.Seed = 7
		cfg.Tau1, cfg.Tau2, cfg.RetentionCount = 1000, 1000, 2
	})
	for i := 0; i < 40; i++ {
		c.Node(i%c.N()).Update(fmt.Sprintf("k%02d", i), store.Value(fmt.Sprintf("v%d", i)))
	}
	c.StepRumor()
	c.StepRumor()
	for i := 0; i < 8; i++ {
		c.Node((3*i + 1) % c.N()).Delete(fmt.Sprintf("k%02d", 5*i))
	}
	spread = c.RunRumorToQuiescence(200)

	// Reactivate one death certificate at its home site and hand it to one
	// neighbour as a rumor: same ordinary stamp, newer activation.
	c.Clock().Advance(10)
	cert, ok := c.Node(1).Store().Reactivate("k00")
	if !ok {
		t.Fatal("k00 holds no death certificate at site 1")
	}
	if needed := c.Node(2).HandleRumors([]store.Entry{cert}, nil); !needed[0] {
		t.Fatal("reactivated certificate not needed by a site holding the dormant one")
	}
	reactivation = c.RunRumorToQuiescence(200)
	return c, spread, reactivation
}

// TestRumorOfferKeepsTheEpidemic pins the rounds to quiescence the blind
// push + pull round produced for this seed before rumor rounds became
// offer-first: who becomes hot when, feedback and the k = 3 counter are
// unchanged, so the numbers must not move.
func TestRumorOfferKeepsTheEpidemic(t *testing.T) {
	const seedSpread, seedReactivation = 7, 8 // measured at the parent commit
	c, spread, reactivation := rumorEpidemic(t)
	if spread != seedSpread || reactivation != seedReactivation {
		t.Errorf("rounds to quiescence = %d then %d, seed had %d then %d", spread, reactivation, seedSpread, seedReactivation)
	}
	if !c.Consistent() {
		t.Error("replicas differ after the epidemic died out")
	}
	want, _ := c.Node(1).Store().Get("k00")
	for i := 0; i < c.N(); i++ {
		got, _ := c.Node(i).Store().Get("k00")
		if got.Activation != want.Activation {
			t.Errorf("site %d holds activation %v, want the reactivated %v", i, got.Activation, want.Activation)
		}
	}
	st := c.TotalStats()
	t.Logf("offered %d ids, %d wanted, %d full entries pushed, %d pulled", st.RumorsOffered, st.RumorsWanted, st.EntriesSent, st.EntriesReceived)
	if st.RumorsOffered <= 2*st.RumorsWanted {
		t.Errorf("offered %d ids for %d wanted: the redundant shares this test is about are missing", st.RumorsOffered, st.RumorsWanted)
	}
}

// TestRumorRoundAfterMailShipsNoPayload: once direct mail has reached every
// site, every rumor share is redundant. The rounds must then move ids only
// — zero full entries either way — and still empty every hot list within k
// rounds, exactly as k unnecessary blind pushes did.
func TestRumorRoundAfterMailShipsNoPayload(t *testing.T) {
	const k = 3
	c := newTestCluster(t, func(cfg *ClusterConfig) {
		cfg.N = 12
		cfg.DirectMailOnUpdate = true
		cfg.Rumor = core.RumorConfig{K: k, Counter: true, Feedback: true, Mode: core.PushPull}
	})
	for i := 0; i < 30; i++ {
		c.Node(i%c.N()).Update(fmt.Sprintf("k%02d", i), store.Value("v"))
	}
	c.Clock().Advance(1) // the delete must carry a later stamp than the write it cancels
	c.Node(4).Delete("k07")
	if !c.Consistent() {
		t.Fatal("mail drained at Update did not reach every site")
	}
	if !c.AnyHot() {
		t.Fatal("mailed updates should be hot everywhere")
	}
	if cycles := c.RunRumorToQuiescence(50); cycles != k {
		t.Errorf("hot lists emptied after %d rounds, want k = %d", cycles, k)
	}
	st := c.TotalStats()
	if st.EntriesSent != 0 || st.EntriesReceived != 0 {
		t.Errorf("rumor rounds shipped %d + %d full entries after mail reached everyone, want 0", st.EntriesSent, st.EntriesReceived)
	}
	if st.RumorsOffered == 0 || st.RumorsWanted != 0 {
		t.Errorf("offered %d ids, %d wanted; want > 0 and 0", st.RumorsOffered, st.RumorsWanted)
	}
}
