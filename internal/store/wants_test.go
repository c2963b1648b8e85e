package store

import (
	"math/rand"
	"testing"

	"epidemic/internal/timestamp"
)

// idOf strips an entry to what a rumor offer carries.
func idOf(e Entry) Entry { return Entry{Key: e.Key, Stamp: e.Stamp, Activation: e.Activation} }

// TestWantsMatchesApply walks every ApplyResult: the want-bit computed from
// the bare id must equal Apply(entry).Changed(), and must leave the store
// untouched.
func TestWantsMatchesApply(t *testing.T) {
	at := func(tm int64) timestamp.T { return timestamp.T{Time: tm, Site: 9} }
	live := func(stamp int64) Entry {
		return Entry{Key: "k", Value: Value("v"), Stamp: at(stamp), Activation: at(stamp)}
	}
	cert := func(stamp, activation int64) Entry {
		return Entry{Key: "k", Stamp: at(stamp), Activation: at(activation), Retention: []timestamp.SiteID{1, 2}}
	}
	cases := []struct {
		name    string
		held    *Entry
		in      Entry
		want    ApplyResult
		covered bool
	}{
		{"missing key", nil, live(5), Applied, false},
		{"older", ptr(live(5)), live(3), Unchanged, false},
		{"newer", ptr(live(5)), live(7), Applied, true},
		{"identical", ptr(live(5)), live(5), Unchanged, true},
		{"death certificate over live", ptr(live(5)), cert(7, 7), Applied, true},
		{"reactivated dormant certificate", ptr(cert(5, 5)), cert(5, 9), ActivationAdvanced, true},
		{"stale activation", ptr(cert(5, 9)), cert(5, 5), Unchanged, false},
		{"obsolete copy under a certificate", ptr(cert(5, 5)), live(3), RejectedByDeath, false},
		{"older certificate under a certificate", ptr(cert(5, 5)), cert(3, 3), Unchanged, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1, timestamp.NewSimulated(100).ClockAt(1))
			if tc.held != nil {
				s.Apply(*tc.held)
			}
			before := s.Snapshot()
			wants, covered := s.Wants(idOf(tc.in))
			if after := s.Snapshot(); len(after) != len(before) || (len(after) == 1 && after[0].Activation != before[0].Activation) {
				t.Fatal("Wants changed the store")
			}
			got := s.Apply(tc.in)
			if got != tc.want {
				t.Fatalf("Apply = %v, want %v", got, tc.want)
			}
			if wants != got.Changed() {
				t.Errorf("Wants = %v, Apply(...).Changed() = %v (%v)", wants, got.Changed(), got)
			}
			if covered != tc.covered {
				t.Errorf("covered = %v, want %v", covered, tc.covered)
			}
		})
	}
}

func ptr(e Entry) *Entry { return &e }

// TestWantsPropertyRandom replays a random stream of writes, deletes and
// reactivations from three sites into two stores: for every entry, the
// want-bit taken from its id just before Apply equals Changed(), and
// covered is exactly "my copy would not change the offerer".
func TestWantsPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := timestamp.NewSimulated(1)
	origins := []*Store{New(1, src.ClockAt(1)), New(2, src.ClockAt(2)), New(3, src.ClockAt(3))}
	a, b := New(4, src.ClockAt(4)), New(5, src.ClockAt(5))
	keys := []string{"p", "q", "r", "s"}
	var log []Entry
	for i := 0; i < 2000; i++ {
		src.Advance(int64(rng.Intn(2)))
		o, key := origins[rng.Intn(len(origins))], keys[rng.Intn(len(keys))]
		var e Entry
		switch r := rng.Intn(10); {
		case r < 6:
			e = o.Update(key, Value{byte(i)})
		case r < 8:
			e = o.Delete(key, nil)
		default:
			var ok bool
			if e, ok = o.Reactivate(key); !ok {
				continue
			}
		}
		log = append(log, e)
		// Deliver a random earlier entry to each replica, out of order.
		for _, s := range []*Store{a, b} {
			in := log[rng.Intn(len(log))]
			held, isHeld := s.Get(in.Key)
			wants, covered := s.Wants(idOf(in))
			if wantCovered := isHeld && !Merge(in, true, held).Changed(); covered != wantCovered {
				t.Fatalf("step %d: covered = %v for %+v over %+v", i, covered, in, held)
			}
			if res := s.Apply(in); wants != res.Changed() {
				t.Fatalf("step %d: Wants = %v but Apply = %v for %+v over %+v", i, wants, res, in, held)
			}
		}
	}
}
