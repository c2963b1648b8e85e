package cluster

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestDirectoryNilSafe(t *testing.T) {
	var d *Directory
	d.SetSelf(Digest{StoreKeys: 1})
	if got := d.Merge(2, []Digest{{Site: 2, Stamp: 5}}); got != 0 {
		t.Errorf("nil Merge = %d", got)
	}
	d.Delivered(2, []Digest{{Site: 3, Stamp: 5}})
	if d.ShareTo(2) != nil {
		t.Error("nil ShareTo returned digests")
	}
	if d.Snapshot() != nil {
		t.Error("nil Snapshot returned digests")
	}
	if d.Len() != 0 || d.Prune(100, 1) != 0 || d.Self() != 0 {
		t.Error("nil directory not inert")
	}
	if _, ok := d.Get(1); ok {
		t.Error("nil Get found a digest")
	}
}

func TestDirectoryMergeNewestWins(t *testing.T) {
	d := NewDirectory(1, 0)
	d.SetSelf(Digest{Stamp: 100, StoreKeys: 7})

	if got := d.Merge(2, []Digest{{Site: 2, Stamp: 50}, {Site: 3, Stamp: 60}}); got != 2 {
		t.Fatalf("initial merge changed %d, want 2", got)
	}
	// Older stamp for site 2 must lose; newer must win.
	if got := d.Merge(2, []Digest{{Site: 2, Stamp: 40, StoreKeys: 1}}); got != 0 {
		t.Errorf("stale digest merged (%d)", got)
	}
	if got := d.Merge(2, []Digest{{Site: 2, Stamp: 55, StoreKeys: 9}}); got != 1 {
		t.Errorf("newer digest rejected (%d)", got)
	}
	dg, ok := d.Get(2)
	if !ok || dg.Stamp != 55 || dg.StoreKeys != 9 {
		t.Errorf("site 2 digest = %+v", dg)
	}
	// The node is authoritative for its own digest: a bounced copy with a
	// newer stamp must not overwrite it.
	if got := d.Merge(2, []Digest{{Site: 1, Stamp: 999, StoreKeys: 0}}); got != 0 {
		t.Errorf("self digest overwritten via merge (%d)", got)
	}
	if dg, _ := d.Get(1); dg.Stamp != 100 || dg.StoreKeys != 7 {
		t.Errorf("self digest = %+v", dg)
	}
}

func TestDirectoryShareSelfFirstAndCapped(t *testing.T) {
	d := NewDirectory(1, 3)
	if d.ShareTo(9) != nil {
		t.Fatal("empty directory shared digests")
	}
	d.SetSelf(Digest{Stamp: 10})
	d.Merge(6, []Digest{
		{Site: 2, Stamp: 100},
		{Site: 3, Stamp: 300},
		{Site: 4, Stamp: 200},
		{Site: 5, Stamp: 50},
	})
	share := d.ShareTo(9)
	if len(share) != 3 {
		t.Fatalf("share len = %d, want cap 3", len(share))
	}
	if share[0].Site != 1 {
		t.Errorf("share[0].Site = %d, want self first", share[0].Site)
	}
	// Remaining slots go to the freshest others: sites 3 (300) and 4 (200).
	if share[1].Site != 3 || share[2].Site != 4 {
		t.Errorf("share order = %d,%d, want 3,4", share[1].Site, share[2].Site)
	}
	// Once those three are delivered, the capped-off rest follows.
	d.Delivered(9, share)
	rest := d.ShareTo(9)
	if len(rest) != 2 || rest[0].Site != 2 || rest[1].Site != 5 {
		t.Errorf("second share = %+v, want sites 2 then 5", rest)
	}
}

// TestDirectoryShareIsPerPeerDelta walks the reset rules of the per-peer
// delta: a digest crosses each peer link once per version.
func TestDirectoryShareIsPerPeerDelta(t *testing.T) {
	d := NewDirectory(1, 0)
	d.SetSelf(Digest{Stamp: 10, StartedAt: 1})
	d.Merge(2, []Digest{{Site: 2, Stamp: 20, StartedAt: 2}, {Site: 3, Stamp: 30, StartedAt: 3}})

	// A digest received from a peer is never echoed back to it, and a
	// peer is never sent its own digest: peer 2 lacks only self.
	first := d.ShareTo(2)
	if len(first) != 1 || first[0].Site != 1 {
		t.Fatalf("share to 2 = %+v, want self only", first)
	}
	// Nothing is marked until the round trip succeeds: a share that was
	// never delivered is offered again.
	if again := d.ShareTo(2); len(again) != 1 {
		t.Fatalf("undelivered share not offered again: %+v", again)
	}
	d.Delivered(2, first)
	if got := d.ShareTo(2); got != nil {
		t.Fatalf("second share with no refresh = %+v, want nil", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { d.ShareTo(2) }); allocs != 0 {
		t.Errorf("empty delta allocates %v times, want 0", allocs)
	}

	// A peer that has heard nothing gets the whole view, self first.
	if got := d.ShareTo(4); len(got) != 3 || got[0].Site != 1 {
		t.Fatalf("share to a fresh peer = %+v, want the full view", got)
	}

	// A refreshed self digest is sent alone.
	d.SetSelf(Digest{Stamp: 40, StartedAt: 1})
	got := d.ShareTo(2)
	if len(got) != 1 || got[0].Site != 1 || got[0].Stamp != 40 {
		t.Fatalf("share after refresh = %+v, want the new self digest alone", got)
	}
	d.Delivered(2, got)

	// A refresh of site 3 heard from peer 2 is not sent back to 2.
	d.Merge(2, []Digest{{Site: 3, Stamp: 50, StartedAt: 3}})
	if got := d.ShareTo(2); got != nil {
		t.Fatalf("digest echoed to the peer it came from: %+v", got)
	}
	// A newer site-3 digest heard from 5 is what 2 lacks.
	d.Merge(5, []Digest{{Site: 3, Stamp: 60, StartedAt: 3}})
	if got := d.ShareTo(2); len(got) != 1 || got[0].Site != 3 || got[0].Stamp != 60 {
		t.Fatalf("share after a newer site-3 digest = %+v", got)
	}
	// An older copy heard from 2 says 2 lags; it still gets the newer one.
	d.Merge(2, []Digest{{Site: 3, Stamp: 55, StartedAt: 3}})
	if got := d.ShareTo(2); len(got) != 1 || got[0].Stamp != 60 {
		t.Fatalf("a stale copy from 2 hid the newer digest: %+v", got)
	}
}

// TestDirectoryRestartResetsPeer: a digest whose StartedAt changed means
// its site restarted with an empty view, so it gets the full view again.
func TestDirectoryRestartResetsPeer(t *testing.T) {
	d := NewDirectory(1, 0)
	d.SetSelf(Digest{Stamp: 10, StartedAt: 1})
	d.Merge(2, []Digest{{Site: 2, Stamp: 20, StartedAt: 2}, {Site: 3, Stamp: 30, StartedAt: 3}})
	d.Delivered(2, d.ShareTo(2))
	if got := d.ShareTo(2); got != nil {
		t.Fatalf("share before restart = %+v, want nil", got)
	}
	// A newer digest from the same incarnation changes nothing.
	d.Merge(3, []Digest{{Site: 2, Stamp: 25, StartedAt: 2}})
	if got := d.ShareTo(2); got != nil {
		t.Fatalf("share after a same-incarnation refresh = %+v, want nil", got)
	}
	// Site 2 restarts; a third site relays its new digest.
	d.Merge(3, []Digest{{Site: 2, Stamp: 35, StartedAt: 33}})
	got := d.ShareTo(2)
	if len(got) != 2 || got[0].Site != 1 || got[1].Site != 3 {
		t.Fatalf("share to a restarted peer = %+v, want self and site 3", got)
	}
}

func TestDirectorySnapshotSortedAndPrune(t *testing.T) {
	d := NewDirectory(2, 0)
	d.SetSelf(Digest{Stamp: 1000})
	d.Merge(5, []Digest{{Site: 5, Stamp: 900}, {Site: 1, Stamp: 100}})

	snap := d.Snapshot()
	if len(snap) != 3 || snap[0].Site != 1 || snap[1].Site != 2 || snap[2].Site != 5 {
		t.Fatalf("snapshot order = %+v", snap)
	}
	// TTL aging drops site 1 (age 900 > 500) but never self (age 0) nor
	// the still-fresh site 5.
	if dropped := d.Prune(1000, 500); dropped != 1 {
		t.Fatalf("pruned %d, want 1", dropped)
	}
	if _, ok := d.Get(1); ok {
		t.Error("stale digest survived prune")
	}
	if _, ok := d.Get(2); !ok {
		t.Error("self digest pruned")
	}
	if d.Len() != 2 {
		t.Errorf("len = %d", d.Len())
	}
}

func TestDirectoryConcurrent(t *testing.T) {
	d := NewDirectory(1, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.SetSelf(Digest{Stamp: int64(i)})
				d.Merge(int32(2+g), []Digest{{Site: int32(2 + g), Stamp: int64(i)}})
				d.Delivered(int32(2+g), d.ShareTo(int32(2+g)))
				d.Snapshot()
				d.Prune(int64(i), 50)
			}
		}(g)
	}
	wg.Wait()
	if d.Len() < 1 {
		t.Error("directory lost its own digest")
	}
}

func TestStallDetectorStaleDigest(t *testing.T) {
	sd := NewStallDetector(StallConfig{StaleAfter: 100, SecondsPerUnit: 1})
	digests := []Digest{
		{Site: 1, Stamp: 1000},
		{Site: 2, Stamp: 850}, // age 150 > 100
	}
	stalls := sd.Check(1000, digests)
	if len(stalls) != 1 || stalls[0].Site != 2 || stalls[0].Reason != ReasonStaleDigest {
		t.Fatalf("stalls = %+v", stalls)
	}
	if stalls[0].AgeSeconds != 150 {
		t.Errorf("age = %v", stalls[0].AgeSeconds)
	}
	// Refreshing the digest clears the stall.
	digests[1].Stamp = 990
	if stalls := sd.Check(1000, digests); len(stalls) != 0 {
		t.Errorf("refreshed digest still stalled: %+v", stalls)
	}
}

func TestStallDetectorResidueStuck(t *testing.T) {
	sd := NewStallDetector(StallConfig{ResidueWindow: 50, SecondsPerUnit: 1})
	at := func(now int64, residue float64) []Stall {
		return sd.Check(now, []Digest{{Site: 1, Stamp: now, Residue: residue}})
	}
	if got := at(0, 0.5); len(got) != 0 {
		t.Fatalf("first observation stalled: %+v", got)
	}
	if got := at(40, 0.5); len(got) != 0 {
		t.Fatalf("inside window stalled: %+v", got)
	}
	got := at(60, 0.5) // unchanged for 60 > 50
	if len(got) != 1 || got[0].Reason != ReasonResidueStuck || got[0].Site != 1 {
		t.Fatalf("stuck residue not flagged: %+v", got)
	}
	// A decaying residue resets the window; zero residue never stalls.
	if got := at(70, 0.4); len(got) != 0 {
		t.Errorf("decaying residue flagged: %+v", got)
	}
	if got := at(200, 0); len(got) != 0 {
		t.Errorf("zero residue flagged: %+v", got)
	}
	if got := at(400, 0); len(got) != 0 {
		t.Errorf("zero residue flagged after window: %+v", got)
	}
}

func TestStallDetectorChecksumMismatch(t *testing.T) {
	sd := NewStallDetector(StallConfig{ChecksumWindow: 100, SecondsPerUnit: 1})
	view := func(now int64, sums ...uint64) []Digest {
		out := make([]Digest, len(sums))
		for i, s := range sums {
			out[i] = Digest{Site: int32(i + 1), Stamp: now, Checksum: s}
		}
		return out
	}
	if got := sd.Check(0, view(0, 7, 8)); len(got) != 0 {
		t.Fatalf("fresh mismatch flagged immediately: %+v", got)
	}
	got := sd.Check(150, view(150, 7, 8))
	if len(got) != 1 || got[0].Reason != ReasonChecksumMismatch || got[0].Site != ClusterWide {
		t.Fatalf("persistent mismatch not flagged: %+v", got)
	}
	// Agreement resets; a fresh disagreement starts a new window.
	if got := sd.Check(200, view(200, 9, 9)); len(got) != 0 {
		t.Errorf("agreement flagged: %+v", got)
	}
	if got := sd.Check(250, view(250, 9, 10)); len(got) != 0 {
		t.Errorf("new mismatch flagged without persistence: %+v", got)
	}
}

func TestStallDetectorStaleExcludedFromChecksum(t *testing.T) {
	// A stale digest's checksum must not count as a mismatch: the site is
	// already flagged stale, and its frozen checksum says nothing about
	// the live cluster.
	sd := NewStallDetector(StallConfig{StaleAfter: 100, ChecksumWindow: 10, SecondsPerUnit: 1})
	digests := []Digest{
		{Site: 1, Stamp: 1000, Checksum: 7},
		{Site: 2, Stamp: 995, Checksum: 7},
		{Site: 3, Stamp: 100, Checksum: 999}, // stale
	}
	sd.Check(1000, digests)
	stalls := sd.Check(1050, []Digest{
		{Site: 1, Stamp: 1050, Checksum: 7},
		{Site: 2, Stamp: 1045, Checksum: 7},
		{Site: 3, Stamp: 100, Checksum: 999},
	})
	for _, s := range stalls {
		if s.Reason == ReasonChecksumMismatch {
			t.Fatalf("stale site's checksum drove a mismatch stall: %+v", stalls)
		}
	}
}

func TestBuildStatus(t *testing.T) {
	digests := []Digest{
		{Site: 1, Stamp: 1000, StartedAt: 0},
		{Site: 2, Stamp: 400, StartedAt: 100},
	}
	stalls := []Stall{{Site: 2, Reason: ReasonStaleDigest}}
	reply := BuildStatus(1, 1000, digests, stalls, 500, 1)
	if reply.Status != "degraded" || reply.Site != 1 || len(reply.Sites) != 2 {
		t.Fatalf("reply = %+v", reply)
	}
	if reply.Sites[0].Stale || reply.Sites[0].AgeSeconds != 0 {
		t.Errorf("site 1 status = %+v", reply.Sites[0])
	}
	if !reply.Sites[1].Stale || reply.Sites[1].AgeSeconds != 600 || reply.Sites[1].UptimeSeconds != 300 {
		t.Errorf("site 2 status = %+v", reply.Sites[1])
	}
	// The reply must round-trip as JSON (no NaN leaks).
	b, err := json.Marshal(reply)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(b), `"degraded"`) {
		t.Errorf("json = %s", b)
	}
	healthy := BuildStatus(1, 1000, digests[:1], nil, 500, 1)
	if healthy.Status != "ok" || len(healthy.Stalls) != 0 {
		t.Errorf("healthy reply = %+v", healthy)
	}
}
