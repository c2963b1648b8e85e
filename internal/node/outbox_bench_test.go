package node

import (
	"fmt"
	"sync"
	"testing"

	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// applyRumorsPerEntryLock is a bench-local replica of the pre-batching
// applyRumors hot path: one n.mu acquisition per applied entry. Kept here
// as the comparison baseline for BenchmarkApplyRumors.
func applyRumorsPerEntryLock(n *Node, entries []store.Entry, mech trace.Mechanism) {
	round := n.rounds.Load()
	for _, e := range entries {
		res := n.store.Apply(e)
		if !res.Changed() {
			continue
		}
		at := n.store.Now()
		n.mu.Lock()
		n.hot.Add(e.Key, e.Stamp)
		if n.activity != nil {
			n.activity.Touch(e.Key)
		}
		n.mu.Unlock()
		n.tracer.RecordApply(e.Key, e.Stamp, 0, trace.Hop{}, mech, at, round)
		n.emit(Event{Kind: EventApply, Key: e.Key, Stamp: e.Stamp})
	}
}

// benchApplyNode builds a node plus background Stats hammering — the
// concurrent-reader load the per-entry locking used to serialize against.
func benchApplyNode(b *testing.B) (*Node, func()) {
	b.Helper()
	n, err := New(Config{Site: 1})
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = n.Stats()
				}
			}
		}()
	}
	return n, func() { close(stop); wg.Wait() }
}

// BenchmarkApplyRumors measures a 64-entry rumor batch landing on a
// replica under concurrent Stats readers: the shipped single-lock batching
// against the old per-entry lock/unlock pattern.
func BenchmarkApplyRumors(b *testing.B) {
	const batch = 64
	keys := make([]string, batch)
	for j := range keys {
		keys[j] = fmt.Sprintf("key-%03d", j)
	}
	fill := func(entries []store.Entry, round int) {
		for j := range entries {
			entries[j] = store.Entry{
				Key:   keys[j],
				Value: store.Value("v"),
				// A fresh stamp every round keeps every apply a real change.
				Stamp: timestamp.T{Time: int64(round + 1), Site: 2, Seq: uint32(j)},
			}
		}
	}
	b.Run("batched-lock", func(b *testing.B) {
		n, done := benchApplyNode(b)
		defer done()
		entries := make([]store.Entry, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fill(entries, i)
			n.applyRumors(entries, nil, trace.MechRumorPush)
		}
		b.ReportMetric(1, "locks/op")
	})
	b.Run("per-entry-lock", func(b *testing.B) {
		n, done := benchApplyNode(b)
		defer done()
		entries := make([]store.Entry, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fill(entries, i)
			applyRumorsPerEntryLock(n, entries, trace.MechRumorPush)
		}
		b.ReportMetric(batch, "locks/op")
	})
}
