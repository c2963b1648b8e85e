package store

import (
	"bytes"
	"encoding/binary"
	"testing"

	"epidemic/internal/timestamp"
	"epidemic/internal/wire"
)

// FuzzApply feeds arbitrary entries into a store and checks the
// invariants that every merge must preserve: the incremental checksum
// matches recomputation, the time index covers exactly the entries, and
// re-applying is a no-op.
func FuzzApply(f *testing.F) {
	f.Add("key", []byte("value"), int64(5), int32(1), uint32(0), false)
	f.Add("", []byte(nil), int64(0), int32(0), uint32(0), true)
	f.Add("k", []byte{}, int64(-3), int32(7), uint32(9), true)
	f.Fuzz(func(t *testing.T, key string, value []byte, tm int64, site int32, seq uint32, death bool) {
		src := timestamp.NewSimulated(1)
		s := New(1, src.ClockAt(1))
		s.Update("existing", Value("x"))

		e := Entry{
			Key:        key,
			Stamp:      timestamp.T{Time: tm, Site: timestamp.SiteID(site), Seq: seq},
			Activation: timestamp.T{Time: tm, Site: timestamp.SiteID(site), Seq: seq},
		}
		if !death {
			e.Value = value
			if e.Value == nil {
				e.Value = Value{}
			}
		}
		res := s.Apply(e)
		if res != Applied && res != Unchanged && res != RejectedByDeath && res != ActivationAdvanced {
			t.Fatalf("unexpected result %v", res)
		}
		// Checksum must match recomputation.
		var sum uint64
		for _, se := range s.Snapshot() {
			sum ^= se.hash()
		}
		if sum != s.Checksum() {
			t.Fatal("checksum diverged")
		}
		// Index covers exactly the entries.
		if len(s.NewestFirst(0)) != s.Len() {
			t.Fatal("index size mismatch")
		}
		// The global checksum is exactly the XOR fold of per-shard sums,
		// and every shard sum matches its own content.
		var fold uint64
		for i := range s.shards {
			sh := &s.shards[i]
			var shardSum uint64
			for _, se := range sh.entries {
				shardSum ^= se.hash()
			}
			if shardSum != sh.sum {
				t.Fatalf("shard %d sum diverged from its entries", i)
			}
			fold ^= sh.sum
		}
		if fold != s.Checksum() {
			t.Fatal("per-shard fold diverged from Checksum")
		}
		// Snapshot is exactly the union of the shard snapshots: same size,
		// and every shard entry appears under its own key.
		snap := s.Snapshot()
		byKey := make(map[string]Entry, len(snap))
		for _, se := range snap {
			byKey[se.Key] = se
		}
		perShard := 0
		for i := range s.shards {
			sh := &s.shards[i]
			perShard += len(sh.entries)
			for k, se := range sh.entries {
				got, ok := byKey[k]
				if !ok || got.Stamp != se.Stamp {
					t.Fatalf("shard %d entry %q missing or stale in Snapshot", i, k)
				}
			}
		}
		if perShard != len(snap) {
			t.Fatalf("Snapshot has %d entries, shards hold %d", len(snap), perShard)
		}
		// Idempotence.
		if res2 := s.Apply(e); res2.Changed() && res == Applied {
			t.Fatal("re-apply changed state")
		}
	})
}

// FuzzLoad feeds arbitrary bytes to the snapshot loader, which must fail
// cleanly rather than panic or corrupt the store.
func FuzzLoad(f *testing.F) {
	// Seed with a valid snapshot, a two-chunk one, mutations of them, and
	// a chunk whose length is forged up to the cap.
	src := timestamp.NewSimulated(1)
	s := New(1, src.ClockAt(1))
	a := s.Update("k", Value("v"))
	src.Advance(1)
	b := s.Delete("d", []timestamp.SiteID{1})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	two := snapshotOf(true, AppendEntries(nil, []Entry{a}), AppendEntries(nil, []Entry{b}))
	forged := binary.BigEndian.AppendUint32(snapshotOf(false), wire.MaxFrame)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(two)
	f.Add(two[:len(two)-5])
	f.Add(append(forged, AppendEntries(nil, []Entry{a})...))
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		target := New(2, timestamp.NewSimulated(1).ClockAt(2))
		target.Update("pre", Value("p"))
		_, _ = target.Load(bytes.NewReader(data)) // must not panic
		// Whatever happened, internal consistency holds.
		assertChecksumConsistent(t, target)
	})
}
