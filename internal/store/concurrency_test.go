package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"epidemic/internal/timestamp"
)

// Hammer the store from many goroutines; run with -race. The assertions
// are deliberately weak — the point is the absence of data races and of
// internal-state corruption (checksum/index divergence).
func TestStoreConcurrentAccess(t *testing.T) {
	src := timestamp.NewSimulated(1)
	s := New(1, src.ClockAt(1))
	// The producer's clock runs ahead, so s's own writes to the keys it
	// applied are stamped past the held entries, from several goroutines
	// at once.
	producer := New(2, src.SkewedClockAt(2, 1000))

	var entries []Entry
	for i := 0; i < 50; i++ {
		entries = append(entries, producer.Update(fmt.Sprintf("k%02d", i%10), Value{byte(i)}))
		src.Advance(1)
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch (w + i) % 6 {
				case 0:
					s.Apply(entries[(w*7+i)%len(entries)])
				case 1:
					s.Update(fmt.Sprintf("w%d", w), Value{byte(i)})
					s.Update(fmt.Sprintf("k%02d", i%10), Value{byte(i)})
				case 2:
					s.Lookup("k00")
					s.Checksum()
				case 3:
					s.Snapshot()
					s.RecentUpdates(s.Now(), 100)
				case 4:
					s.Delete(fmt.Sprintf("d%d", w), []timestamp.SiteID{1})
					s.DeathCertificates()
				case 5:
					s.NewestFirst(5)
					s.ExpireDeathCertificates(s.Now(), 1<<40, 1<<40)
				}
			}
		}(w)
	}
	wg.Wait()

	// Internal consistency after the storm: incremental checksum matches
	// recomputation, index covers exactly the entries.
	var sum uint64
	snap := s.Snapshot()
	for _, e := range snap {
		sum ^= e.hash()
	}
	if sum != s.Checksum() {
		t.Error("checksum diverged from content")
	}
	newest := s.NewestFirst(0)
	if got := len(newest); got != len(snap) {
		t.Errorf("index has %d entries, store has %d", got, len(snap))
	}
	// Strictly descending: no two entries, lifted writes included, share a
	// stamp.
	assertReverseStamped(t, "after the storm", newest)
}

// assertReverseStamped fails the test if entries are not strictly
// descending by ordinary timestamp (the merged-ordering invariant every
// reverse-timestamp read must uphold, storm or no storm).
func assertReverseStamped(t *testing.T, where string, entries []Entry) {
	t.Helper()
	for i := 1; i < len(entries); i++ {
		if !entries[i].Stamp.Less(entries[i-1].Stamp) {
			t.Errorf("%s: entries[%d]=%v not strictly older than entries[%d]=%v",
				where, i, entries[i].Stamp, i-1, entries[i-1].Stamp)
			return
		}
	}
}

// TestStoreConcurrentMergedReads hammers the k-way-merged read paths —
// RecentUpdates, NewestFirst, the PeelBatch walk and Save's ascending walk
// — while writers churn every shard. Run with -race. Each merged result must be strictly
// reverse-timestamp ordered even mid-storm, and after the storm the folded
// per-shard checksum must match a full recomputation.
func TestStoreConcurrentMergedReads(t *testing.T) {
	src := timestamp.NewSimulated(1)
	s := New(1, src.ClockAt(1))
	for i := 0; i < 200; i++ {
		s.Update(fmt.Sprintf("seed%03d", i), Value{byte(i)})
		src.Advance(1)
	}

	const writers, readers, iters = 4, 4, 300
	var wgW, wgR sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0:
					s.Update(fmt.Sprintf("w%d-%03d", w, i), Value{byte(i)})
				case 1:
					s.Update(fmt.Sprintf("seed%03d", (w*31+i)%200), Value{byte(w)})
				case 2:
					s.Delete(fmt.Sprintf("d%d-%03d", w, i), []timestamp.SiteID{1})
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wgR.Add(1)
		go func(r int) {
			defer wgR.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (r + i) % 4 {
				case 3:
					// Save reads entries after dropping each shard's lock;
					// what it wrote must load cleanly.
					var buf bytes.Buffer
					if err := s.Save(&buf); err != nil {
						t.Error(err)
						return
					}
					if _, err := New(2, src.ClockAt(2)).Load(&buf); err != nil {
						t.Errorf("snapshot taken mid-storm: %v", err)
						return
					}
				case 0:
					assertReverseStamped(t, "RecentUpdates", s.RecentUpdates(s.Now(), 1<<40))
				case 1:
					assertReverseStamped(t, "NewestFirst", s.NewestFirst(32))
				case 2:
					// One full peel walk; each batch must be ordered and the
					// resume bound must strictly decrease, so the walk
					// terminates even while writers insert behind it.
					bound := PeelStart
					for {
						batch, next, more := s.PeelBatch(bound, 16, s.Now(), 1<<40)
						assertReverseStamped(t, "PeelBatch", batch)
						if !more {
							break
						}
						if !next.Less(bound) {
							t.Errorf("PeelBatch bound did not advance: %v -> %v", bound, next)
							return
						}
						bound = next
					}
				}
			}
		}(r)
	}
	// Readers keep merging until every writer has finished, so the merged
	// paths are exercised against live mutation for the whole storm.
	wgW.Wait()
	close(stop)
	wgR.Wait()

	// Folded checksum matches a full recomputation after the storm.
	var sum uint64
	snap := s.Snapshot()
	for _, e := range snap {
		sum ^= e.hash()
	}
	if sum != s.Checksum() {
		t.Error("folded checksum diverged from full recomputation")
	}
	// The quiescent merged walk is exactly the store, strictly ordered.
	all := s.NewestFirst(0)
	if len(all) != len(snap) {
		t.Errorf("NewestFirst(0) has %d entries, store has %d", len(all), len(snap))
	}
	assertReverseStamped(t, "NewestFirst(0) quiescent", all)
}

// Two stores resolving against each other from multiple goroutines must
// stay internally consistent (ResolveDifference locks per-operation, not
// globally, so interleavings are real).
func TestConcurrentResolve(t *testing.T) {
	src := timestamp.NewSimulated(1)
	a := New(1, src.ClockAt(1))
	b := New(2, src.ClockAt(2))
	for i := 0; i < 20; i++ {
		a.Update(fmt.Sprintf("a%d", i), Value("x"))
		b.Update(fmt.Sprintf("b%d", i), Value("y"))
		src.Advance(1)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					a.Update(fmt.Sprintf("hot%d", w), Value{byte(i)})
				}
				// Direct full push both ways exercises concurrent Apply.
				for _, e := range a.Snapshot() {
					b.Apply(e)
				}
				for _, e := range b.Snapshot() {
					a.Apply(e)
				}
			}
		}(w)
	}
	wg.Wait()
	// One final sweep makes them equal.
	for _, e := range a.Snapshot() {
		b.Apply(e)
	}
	for _, e := range b.Snapshot() {
		a.Apply(e)
	}
	if !ContentEqual(a, b) {
		t.Error("stores diverged")
	}
}
