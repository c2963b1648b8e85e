package node

import (
	"testing"
	"time"
)

// Review repro: setPeers mutates q.peer under ox.mu while a drain reads
// q.peer after releasing ox.mu (the MailBatch call) — the writers' own
// drains before Start, the workers' after it.
func TestReviewOutboxSetPeersRace(t *testing.T) {
	n, err := New(Config{Site: 1, DirectMailOnUpdate: true})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(Config{Site: 2})
	p := NewLocalPeer(b, 1)
	n.SetPeers([]Peer{p})
	churn := func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 2000; i++ {
				n.SetPeers([]Peer{NewLocalPeer(b, 1)})
				n.Update("j", []byte("v"))
			}
		}()
		for i := 0; i < 2000; i++ {
			n.Update("k", []byte("v"))
		}
		<-done
	}
	churn()
	n.Start()
	churn()
	n.FlushMail(time.Second)
	n.Stop()
}
