package store

import (
	"testing"

	"epidemic/internal/timestamp"
)

// testPair returns two stores sharing one simulated time source.
func testPair(t *testing.T) (*Store, *Store, *timestamp.Simulated) {
	t.Helper()
	src := timestamp.NewSimulated(1000)
	return New(1, src.ClockAt(1)), New(2, src.ClockAt(2)), src
}

func TestUpdateLookup(t *testing.T) {
	s, _, _ := testPair(t)
	if _, ok := s.Lookup("k"); ok {
		t.Fatal("lookup on empty store succeeded")
	}
	e := s.Update("k", Value("v1"))
	if e.Key != "k" || string(e.Value) != "v1" || e.IsDeath() {
		t.Fatalf("bad entry %+v", e)
	}
	v, ok := s.Lookup("k")
	if !ok || string(v) != "v1" {
		t.Fatalf("Lookup = %q, %v", v, ok)
	}
	e2 := s.Update("k", Value("v2"))
	if !e.Stamp.Less(e2.Stamp) {
		t.Fatal("second update must have later stamp")
	}
	v, _ = s.Lookup("k")
	if string(v) != "v2" {
		t.Fatalf("Lookup after update = %q", v)
	}
	if s.Len() != 1 || s.LiveLen() != 1 {
		t.Fatalf("Len=%d LiveLen=%d", s.Len(), s.LiveLen())
	}
}

func TestUpdateNilValueIsNotDeletion(t *testing.T) {
	s, _, _ := testPair(t)
	e := s.Update("k", nil)
	if e.IsDeath() {
		t.Fatal("Update(nil) must store an empty value, not a death certificate")
	}
	if _, ok := s.Lookup("k"); !ok {
		t.Fatal("empty value should be visible")
	}
}

func TestDeleteHidesItem(t *testing.T) {
	s, _, _ := testPair(t)
	s.Update("k", Value("v"))
	dc := s.Delete("k", []timestamp.SiteID{1, 5})
	if !dc.IsDeath() {
		t.Fatal("Delete must produce a death certificate")
	}
	if !dc.RetainedBy(5) || dc.RetainedBy(7) {
		t.Fatal("retention list wrong")
	}
	if _, ok := s.Lookup("k"); ok {
		t.Fatal("deleted item visible")
	}
	if _, ok := s.Get("k"); !ok {
		t.Fatal("raw Get must still see the certificate")
	}
	if s.Len() != 1 || s.LiveLen() != 0 {
		t.Fatalf("Len=%d LiveLen=%d", s.Len(), s.LiveLen())
	}
}

func TestApplyNewerWins(t *testing.T) {
	a, b, _ := testPair(t)
	e1 := a.Update("k", Value("old"))
	e2 := b.Update("k", Value("new")) // later stamp (same sim time, higher site breaks tie)
	if !e1.Stamp.Less(e2.Stamp) {
		t.Fatal("test setup: e2 must be newer")
	}
	if got := a.Apply(e2); got != Applied {
		t.Fatalf("Apply newer = %v", got)
	}
	if got := a.Apply(e1); got != Unchanged {
		t.Fatalf("Apply older = %v", got)
	}
	if got := a.Apply(e2); got != Unchanged {
		t.Fatalf("Apply duplicate = %v", got)
	}
	v, _ := a.Lookup("k")
	if string(v) != "new" {
		t.Fatalf("value = %q", v)
	}
}

func TestApplyResultChanged(t *testing.T) {
	if !Applied.Changed() || !ActivationAdvanced.Changed() {
		t.Error("Applied/ActivationAdvanced must report Changed")
	}
	if Unchanged.Changed() || RejectedByDeath.Changed() {
		t.Error("Unchanged/RejectedByDeath must not report Changed")
	}
	for _, r := range []ApplyResult{Unchanged, Applied, ActivationAdvanced, RejectedByDeath, ApplyResult(0)} {
		if r.String() == "" {
			t.Error("empty String()")
		}
	}
}

func TestDeathCertificateCancelsOldCopy(t *testing.T) {
	a, b, src := testPair(t)
	old := a.Update("k", Value("stale"))
	src.Advance(10)
	dc := b.Delete("k", nil)

	// Death certificate arrives at a site holding the old item.
	if got := a.Apply(dc); got != Applied {
		t.Fatalf("Apply(dc) = %v", got)
	}
	if _, ok := a.Lookup("k"); ok {
		t.Fatal("item should be cancelled")
	}
	// Old copy arriving later must be rejected, not resurrected.
	if got := a.Apply(old); got != RejectedByDeath {
		t.Fatalf("Apply(old) = %v", got)
	}
	if _, ok := a.Lookup("k"); ok {
		t.Fatal("item resurrected")
	}
}

func TestUpdateAfterDeleteReinstates(t *testing.T) {
	a, _, src := testPair(t)
	a.Update("k", Value("v1"))
	src.Advance(1)
	a.Delete("k", nil)
	src.Advance(1)
	a.Update("k", Value("v2"))
	v, ok := a.Lookup("k")
	if !ok || string(v) != "v2" {
		t.Fatalf("reinstated Lookup = %q, %v", v, ok)
	}
	if len(a.DeathCertificates()) != 0 {
		t.Fatal("death certificate should be superseded")
	}
}

// TestLocalWriteStampsPastHeldEntry: a local Update or Delete of a key held
// at a stamp ahead of this site's clock is stamped by this site just past
// the held stamp, so it supersedes the held entry wherever that lives. Two
// such writes never share a stamp, with each other or with one the clock
// issues later.
func TestLocalWriteStampsPastHeldEntry(t *testing.T) {
	src := timestamp.NewSimulated(1000)
	fast, slow := New(1, src.SkewedClockAt(1, 500)), New(2, src.ClockAt(2))
	for _, k := range []string{"a", "b"} {
		slow.Apply(fast.Update(k, Value("fast")))
	}
	held, _ := slow.Get("a")
	set := slow.Update("a", Value("slow"))
	del := slow.Delete("b", nil)
	for _, e := range []Entry{set, del} {
		if !held.Stamp.Less(e.Stamp) || e.Stamp.Site != 2 || e.Activation != e.Stamp {
			t.Errorf("%s stamped %v / %v over held %v", e.Key, e.Stamp, e.Activation, held.Stamp)
		}
		if got := fast.Apply(e); got != Applied {
			t.Errorf("fast site's Apply(%s) = %v, want applied", e.Key, got)
		}
	}
	if set.Stamp == del.Stamp {
		t.Errorf("two lifted writes share stamp %v", set.Stamp)
	}
	src.Advance(501) // the slow clock now reads the lifted stamps' time
	for _, k := range []string{"c", "d", "e"} {
		if e := slow.Update(k, Value("v")); e.Stamp == set.Stamp || e.Stamp == del.Stamp {
			t.Errorf("the clock reissued lifted stamp %v", e.Stamp)
		}
	}
}

func TestChecksumTracksContent(t *testing.T) {
	a, b, _ := testPair(t)
	if a.Checksum() != 0 {
		t.Fatal("empty checksum not 0")
	}
	e1 := a.Update("x", Value("1"))
	e2 := a.Update("y", Value("2"))
	if a.Checksum() == 0 {
		t.Fatal("checksum did not change")
	}
	// Same content on another store => same checksum regardless of order.
	b.Apply(e2)
	b.Apply(e1)
	if a.Checksum() != b.Checksum() {
		t.Fatal("equal content, unequal checksum")
	}
	// Divergence changes it.
	b.Update("z", Value("3"))
	if a.Checksum() == b.Checksum() {
		t.Fatal("different content, equal checksum")
	}
}

func TestChecksumRemovalRestores(t *testing.T) {
	a, _, _ := testPair(t)
	before := a.Checksum()
	a.Update("k", Value("v"))
	sh := a.shardFor("k")
	sh.mu.Lock()
	sh.drop("k")
	sh.mu.Unlock()
	if a.Checksum() != before {
		t.Fatal("checksum not restored after drop")
	}
	if a.Len() != 0 {
		t.Fatal("entry not dropped")
	}
}

func TestReactivate(t *testing.T) {
	a, _, src := testPair(t)
	a.Delete("k", nil)
	dc, _ := a.Get("k")
	src.Advance(100)
	re, ok := a.Reactivate("k")
	if !ok {
		t.Fatal("Reactivate failed")
	}
	if re.Stamp != dc.Stamp {
		t.Fatal("ordinary timestamp must not move on reactivation")
	}
	if !dc.Activation.Less(re.Activation) {
		t.Fatal("activation timestamp must advance")
	}
	// Reactivating a live item fails.
	a.Update("live", Value("v"))
	if _, ok := a.Reactivate("live"); ok {
		t.Fatal("reactivated a live entry")
	}
	if _, ok := a.Reactivate("absent"); ok {
		t.Fatal("reactivated an absent key")
	}
}

func TestReactivatedCertificateDoesNotCancelNewerUpdate(t *testing.T) {
	// §2.2: somewhere in the network there is a legitimate update with a
	// timestamp between the original and revised timestamps of the death
	// certificate; it must survive.
	a, b, src := testPair(t)
	a.Delete("k", nil)
	src.Advance(10)
	reinstate := b.Update("k", Value("back")) // newer than the certificate
	src.Advance(10)
	re, _ := a.Reactivate("k")

	// The reinstating update meets the reactivated certificate.
	if got := b.Apply(re); got != Unchanged {
		t.Fatalf("newer update overwritten by reactivated certificate: %v", got)
	}
	if v, ok := b.Lookup("k"); !ok || string(v) != "back" {
		t.Fatalf("reinstated value lost: %q %v", v, ok)
	}
	// And the certificate holder accepts the newer update.
	if got := a.Apply(reinstate); got != Applied {
		t.Fatalf("certificate holder rejected newer update: %v", got)
	}
}

func TestActivationAdvancedMerge(t *testing.T) {
	a, b, src := testPair(t)
	dc := a.Delete("k", nil)
	b.Apply(dc)
	src.Advance(50)
	re, _ := a.Reactivate("k")
	if got := b.Apply(re); got != ActivationAdvanced {
		t.Fatalf("Apply(reactivated) = %v", got)
	}
	got, _ := b.Get("k")
	if got.Activation != re.Activation {
		t.Fatal("activation not adopted")
	}
	// Applying the stale original again changes nothing.
	if res := b.Apply(dc); res != Unchanged {
		t.Fatalf("Apply(stale dc) = %v", res)
	}
}

func TestExpireDeathCertificates(t *testing.T) {
	const tau1, tau2 = 100, 1000
	src := timestamp.NewSimulated(0)
	retSite := New(5, src.ClockAt(5))
	other := New(6, src.ClockAt(6))

	dc := retSite.Delete("k", []timestamp.SiteID{5})
	other.Apply(dc)

	// Before tau1: both keep it.
	src.Advance(tau1)
	if n := other.ExpireDeathCertificates(src.Read(), tau1, tau2); n != 0 {
		t.Fatalf("dropped %d before tau1", n)
	}
	// After tau1: only the retention site keeps it.
	src.Advance(1)
	if n := other.ExpireDeathCertificates(src.Read(), tau1, tau2); n != 1 {
		t.Fatalf("non-retention drop = %d, want 1", n)
	}
	if n := retSite.ExpireDeathCertificates(src.Read(), tau1, tau2); n != 0 {
		t.Fatalf("retention site dropped %d", n)
	}
	if _, ok := retSite.Get("k"); !ok {
		t.Fatal("retention site lost the dormant certificate")
	}
	// After tau1+tau2: everyone drops it.
	src.Advance(tau2)
	if n := retSite.ExpireDeathCertificates(src.Read(), tau1, tau2); n != 1 {
		t.Fatalf("retention site final drop = %d, want 1", n)
	}
	if retSite.Len() != 0 {
		t.Fatal("certificate not fully dropped")
	}
}

func TestIsDormant(t *testing.T) {
	src := timestamp.NewSimulated(0)
	s := New(1, src.ClockAt(1))
	dc := s.Delete("k", nil)
	if IsDormant(dc, src.Read(), 100) {
		t.Fatal("fresh certificate dormant")
	}
	if !IsDormant(dc, src.Read()+101, 100) {
		t.Fatal("old certificate not dormant")
	}
	live := s.Update("x", Value("v"))
	if IsDormant(live, src.Read()+1000, 1) {
		t.Fatal("live entry reported dormant")
	}
}

func TestChecksumLiveIgnoresDormant(t *testing.T) {
	const tau1 = 100
	src := timestamp.NewSimulated(0)
	a := New(1, src.ClockAt(1))
	b := New(2, src.ClockAt(2))
	e := a.Update("x", Value("v"))
	b.Apply(e)
	dc := a.Delete("gone", nil)
	b.Apply(dc)
	src.Advance(tau1 + 1)
	// b expires the certificate (not a retention site); a retains it
	// (simulate by not expiring). Their full checksums now differ but the
	// live checksums agree.
	b.ExpireDeathCertificates(src.Read(), tau1, 1<<40)
	if a.Checksum() == b.Checksum() {
		t.Fatal("full checksums should differ")
	}
	if a.ChecksumLive(src.Read(), tau1) != b.ChecksumLive(src.Read(), tau1) {
		t.Fatal("live checksums should agree")
	}
}

func TestRecentUpdates(t *testing.T) {
	src := timestamp.NewSimulated(0)
	s := New(1, src.ClockAt(1))
	s.Update("old", Value("1"))
	src.Advance(100)
	s.Update("mid", Value("2"))
	src.Advance(100)
	s.Update("new", Value("3"))

	got := s.RecentUpdates(src.Read(), 150)
	if len(got) != 2 {
		t.Fatalf("recent = %d entries, want 2", len(got))
	}
	if got[0].Key != "new" || got[1].Key != "mid" {
		t.Fatalf("order wrong: %v %v", got[0].Key, got[1].Key)
	}
	if n := len(s.RecentUpdates(src.Read(), 1<<40)); n != 3 {
		t.Fatalf("all-window recent = %d", n)
	}
	if n := len(s.RecentUpdates(src.Read(), 0)); n != 0 {
		t.Fatalf("zero-window recent = %d", n)
	}
}

func TestNewestFirstAndOlderThan(t *testing.T) {
	src := timestamp.NewSimulated(0)
	s := New(1, src.ClockAt(1))
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		s.Update(k, Value(k))
		src.Advance(10)
	}
	got := s.NewestFirst(2)
	if len(got) != 2 || got[0].Key != "d" || got[1].Key != "c" {
		t.Fatalf("NewestFirst(2) = %v", got)
	}
	all := s.NewestFirst(0)
	if len(all) != 4 || all[3].Key != "a" {
		t.Fatalf("NewestFirst(0) = %v", all)
	}
	older := s.OlderThan(got[1].Stamp, 0)
	if len(older) != 2 || older[0].Key != "b" || older[1].Key != "a" {
		t.Fatalf("OlderThan = %v", older)
	}
	if n := len(s.OlderThan(all[3].Stamp, 0)); n != 0 {
		t.Fatalf("OlderThan(oldest) = %d entries", n)
	}
	limited := s.OlderThan(got[0].Stamp, 1)
	if len(limited) != 1 || limited[0].Key != "c" {
		t.Fatalf("OlderThan limit = %v", limited)
	}
}

func TestSnapshotAndKeysSorted(t *testing.T) {
	s, _, _ := testPair(t)
	s.Update("b", Value("2"))
	s.Update("a", Value("1"))
	s.Delete("c", nil)
	snap := s.Snapshot()
	if len(snap) != 3 || snap[0].Key != "a" || snap[2].Key != "c" {
		t.Fatalf("Snapshot = %v", snap)
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
	// Mutating the snapshot must not affect the store.
	snap[0].Value[0] = 'X'
	if v, _ := s.Lookup("a"); string(v) != "1" {
		t.Fatal("snapshot aliases store memory")
	}
}

func TestContentEqual(t *testing.T) {
	a, b, _ := testPair(t)
	if !ContentEqual(a, b) {
		t.Fatal("empty stores unequal")
	}
	e := a.Update("k", Value("v"))
	if ContentEqual(a, b) {
		t.Fatal("diverged stores equal")
	}
	b.Apply(e)
	if !ContentEqual(a, b) {
		t.Fatal("synced stores unequal")
	}
}

func TestEntryEqualIgnoresMetadata(t *testing.T) {
	a, _, src := testPair(t)
	dc := a.Delete("k", []timestamp.SiteID{1})
	src.Advance(10)
	re, _ := a.Reactivate("k")
	if !dc.Equal(re) {
		t.Fatal("activation advance must not change content equality")
	}
	if dc.hash() != re.hash() {
		t.Fatal("hash must ignore activation")
	}
}

func TestScanPrefix(t *testing.T) {
	s, _, _ := testPair(t)
	s.Update("app/a", Value("1"))
	s.Update("app/b", Value("2"))
	s.Update("other", Value("3"))
	s.Delete("app/dead", nil)

	got := s.ScanPrefix("app/")
	if len(got) != 2 || got[0].Key != "app/a" || got[1].Key != "app/b" {
		t.Fatalf("ScanPrefix = %v", got)
	}
	if len(s.ScanPrefix("none/")) != 0 {
		t.Error("unexpected matches")
	}
	all := s.ScanPrefix("")
	if len(all) != 3 { // death certificate excluded
		t.Errorf("empty prefix = %d entries, want 3", len(all))
	}
}
