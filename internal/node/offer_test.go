package node

import (
	"fmt"
	"testing"

	"epidemic/internal/core"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// TestOfferReadsOnlyWantedValues: with 1 000 hot rumors and MaxBatch = 8 a
// round offers 8 value-less ids, and reads and ships values only for the
// ones the peer asked for.
func TestOfferReadsOnlyWantedValues(t *testing.T) {
	n, err := New(Config{
		Site:  1,
		Rumor: core.RumorConfig{K: 3, Counter: true, Feedback: true, Mode: core.PushPull, MaxBatch: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &batchPeer{countingPeer: countingPeer{id: 2}, wantAt: map[int]bool{2: true, 5: true}}
	n.SetPeers([]Peer{p})
	for i := 0; i < 1000; i++ {
		n.Update(fmt.Sprintf("k%04d", i), store.Value("payload"))
	}
	if err := n.StepRumor(); err != nil {
		t.Fatal(err)
	}
	if len(p.offers) != 1 || len(p.offers[0]) != 8 {
		t.Fatalf("offers = %d of %d ids, want one offer of MaxBatch = 8", len(p.offers), len(p.offers[0]))
	}
	for _, id := range p.offers[0] {
		want, _ := n.Store().Get(id.Key)
		if id.Value != nil || id.Retention != nil || id.Stamp != want.Stamp || id.Activation != want.Activation {
			t.Errorf("offered id %+v, want the bare identity of %+v", id, want)
		}
	}
	if len(p.batches) != 1 || len(p.batches[0]) != 2 {
		t.Fatalf("pushes = %v, want one push of the 2 wanted entries", p.batches)
	}
	for j, at := range []int{2, 5} {
		if got := p.batches[0][j]; got.Key != p.offers[0][at].Key || string(got.Value) != "payload" {
			t.Errorf("pushed %+v, want the full entry of offered id %d", got, at)
		}
	}
	st := n.Stats()
	if st.RumorsOffered != 8 || st.RumorsWanted != 2 || st.EntriesSent != 2 {
		t.Errorf("offered/wanted/sent = %d/%d/%d, want 8/2/2", st.RumorsOffered, st.RumorsWanted, st.EntriesSent)
	}
}

// TestStaleRumorNeverOffered: a hot key overwritten and then deleted behind
// the hot list's back (as a remote anti-entropy repair does) is never
// offered or shipped at a stamp the store no longer holds, and leaves the
// hot list once its certificate expires.
func TestStaleRumorNeverOffered(t *testing.T) {
	src := timestamp.NewSimulated(1)
	n, err := New(Config{
		Site: 1, Clock: src.ClockAt(1), Tau1: 10, Tau2: 10,
		Rumor: core.RumorConfig{K: 3, Counter: true, Feedback: true, Mode: core.PushPull},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &batchPeer{countingPeer: countingPeer{id: 2}}
	n.SetPeers([]Peer{p})
	first := n.Update("k", store.Value("v1"))
	n.Update("other", store.Value("x"))

	round := func() {
		t.Helper()
		if err := n.StepRumor(); err != nil {
			t.Fatal(err)
		}
		last := append(append([]store.Entry(nil), p.offers[len(p.offers)-1]...), p.batches[len(p.batches)-1]...)
		for _, e := range last {
			if held, ok := n.Store().Get(e.Key); !ok || held.Stamp != e.Stamp {
				t.Fatalf("shipped %q at stamp %v, store holds %v (present %v)", e.Key, e.Stamp, held.Stamp, ok)
			}
			if e.Key == "k" && e.Stamp == first.Stamp {
				t.Fatal("stale stamp of k shipped")
			}
		}
	}
	src.Advance(1)
	n.Store().Update("k", store.Value("v2"))
	round()
	src.Advance(1)
	n.Store().Delete("k", nil)
	round()
	src.Advance(100)
	n.StepGC() // certificate expires: nothing left to gossip about k
	round()
	for _, e := range n.HotEntries() {
		if e.Key == "k" {
			t.Error("k still hot after its entry expired")
		}
	}
}

// TestHandleOfferAgreesWithHandleRumors: the want-bits of an offer are the
// needed-bits a blind push of the same entries would have returned, and the
// reply leaves out hot rumors the offer already covers.
func TestHandleOfferAgreesWithHandleRumors(t *testing.T) {
	a, b, src := twoNodes(t, nil)
	shared := a.Update("shared", store.Value("s"))
	b.HandleMail(shared, hopAt(nil, 0)) // hot at both, same stamp
	src.Advance(1)
	onlyA := a.Update("only-a", store.Value("a"))
	b.Update("only-b", store.Value("b"))
	old := a.Update("raced", store.Value("old"))
	src.Advance(1)
	b.Update("raced", store.Value("new")) // b holds a newer version than a offers

	entries := []store.Entry{shared, onlyA, old}
	ids := make([]store.Entry, len(entries))
	for i, e := range entries {
		ids[i], _ = a.Store().ID(e.Key)
	}
	want, back, _ := b.HandleOffer(ids)
	if got := fmt.Sprint(want); got != "[false true false]" {
		t.Errorf("want-bits = %s, want [false true false]", got)
	}
	var keys []string
	for _, e := range back {
		keys = append(keys, e.Key)
	}
	if got := fmt.Sprint(keys); got != "[only-b raced]" {
		t.Errorf("returned %s, want [only-b raced]: shared is covered, raced is newer here", got)
	}
	if needed := b.HandleRumors(entries, nil); fmt.Sprint(needed) != fmt.Sprint(want) {
		t.Errorf("blind push needed %v, offer wanted %v", needed, want)
	}
}
