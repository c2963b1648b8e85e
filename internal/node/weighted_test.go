package node

import (
	"testing"

	"epidemic/internal/core"
	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// countingPeer counts how often it is contacted.
type countingPeer struct {
	id    timestamp.SiteID
	calls int
}

func (p *countingPeer) ID() timestamp.SiteID { return p.id }

func (p *countingPeer) AntiEntropy(core.ResolveConfig, *store.Store, *trace.Tracer) (core.ExchangeStats, error) {
	p.calls++
	return core.ExchangeStats{}, nil
}

func (p *countingPeer) PushRumors(entries []store.Entry, _ []trace.Hop) ([]bool, error) {
	p.calls++
	return make([]bool, len(entries)), nil
}

func (p *countingPeer) OfferRumors(ids []store.Entry) ([]bool, []store.Entry, []trace.Hop, error) {
	p.calls++
	return make([]bool, len(ids)), nil, nil, nil
}

func (p *countingPeer) Checksum(int64) (uint64, error) { return 0, nil }

func (p *countingPeer) Mail(store.Entry, trace.Hop) error { return nil }

func TestSetPeersWeightedValidation(t *testing.T) {
	n, err := New(Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := &countingPeer{id: 2}
	if err := n.SetPeersWeighted([]Peer{p}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if err := n.SetPeersWeighted([]Peer{p}, []float64{0}); err == nil {
		t.Error("zero weight accepted")
	}
	if err := n.SetPeersWeighted([]Peer{p}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
	if err := n.SetPeersWeighted([]Peer{p}, []float64{3}); err != nil {
		t.Errorf("valid weights rejected: %v", err)
	}
}

func TestWeightedPeerSelectionBias(t *testing.T) {
	n, err := New(Config{Site: 1, Seed: 9,
		Redistribution: core.RedistributeNone})
	if err != nil {
		t.Fatal(err)
	}
	near := &countingPeer{id: 2}
	far := &countingPeer{id: 3}
	// 9:1 bias toward the near peer, as a spatial distribution would give.
	if err := n.SetPeersWeighted([]Peer{near, far}, []float64{9, 1}); err != nil {
		t.Fatal(err)
	}
	const rounds = 3000
	for i := 0; i < rounds; i++ {
		if err := n.StepAntiEntropy(); err != nil {
			t.Fatal(err)
		}
	}
	total := near.calls + far.calls
	if total != rounds {
		t.Fatalf("calls = %d, want %d", total, rounds)
	}
	frac := float64(near.calls) / float64(total)
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("near fraction = %.3f, want ~0.9", frac)
	}
}

func TestSetPeersResetsWeights(t *testing.T) {
	n, err := New(Config{Site: 1, Seed: 4, Redistribution: core.RedistributeNone})
	if err != nil {
		t.Fatal(err)
	}
	a := &countingPeer{id: 2}
	bPeer := &countingPeer{id: 3}
	if err := n.SetPeersWeighted([]Peer{a, bPeer}, []float64{100, 1}); err != nil {
		t.Fatal(err)
	}
	// Plain SetPeers restores uniform selection.
	n.SetPeers([]Peer{a, bPeer})
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		if err := n.StepAntiEntropy(); err != nil {
			t.Fatal(err)
		}
	}
	frac := float64(a.calls) / float64(rounds)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("uniform fraction = %.3f, want ~0.5", frac)
	}
}
