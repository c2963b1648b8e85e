// Package transport provides the communication substrates the epidemic
// algorithms run over: a store-and-forward in-memory mail system with the
// failure modes §1.2 assumes (queue overflow, silent loss, delayed
// delivery), and a TCP transport that lets real node.Node replicas gossip
// across machines — pooled persistent sessions framed in one hand-rolled
// binary layout (codec.go, frame.go), with a UDP fast path for
// single-datagram rumor pushes (udp.go) that carries the same layout.
// Network direct mail rides the same pooled
// sessions and codec as every other request kind, so §1.2 mail pays no
// separate encode path.
package transport

import (
	"errors"
	"math/rand"
	"sync"

	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// Message is one queued mail item.
type Message struct {
	From, To timestamp.SiteID
	Entry    store.Entry
}

// MemoryMail is an in-memory PostMail substrate: per-destination bounded
// queues, optional random loss, and explicit delivery pumping so tests and
// simulations control timing. It models §1.2's mail semantics: "it queues
// messages so the sender isn't delayed ... messages may be discarded when
// queues overflow".
type MemoryMail struct {
	mu       sync.Mutex
	rng      *rand.Rand
	queueCap int
	lossRate float64
	queues   map[timestamp.SiteID][]Message

	// Stats
	posted, dropped, delivered int
}

// ErrQueueOverflow is returned by PostMail when the destination queue is
// full.
var ErrQueueOverflow = errors.New("transport: mail queue overflow")

// NewMemoryMail builds a mail system. queueCap bounds each destination
// queue (0 = unbounded); lossRate silently drops that fraction of posted
// messages.
func NewMemoryMail(queueCap int, lossRate float64, seed int64) *MemoryMail {
	return &MemoryMail{
		rng:      rand.New(rand.NewSource(seed)),
		queueCap: queueCap,
		lossRate: lossRate,
		queues:   make(map[timestamp.SiteID][]Message),
	}
}

// Post queues a message for delivery. Loss is silent (nil error); queue
// overflow is reported, matching the paper's "PostMail can fail" model.
func (m *MemoryMail) Post(msg Message) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.posted++
	if m.lossRate > 0 && m.rng.Float64() < m.lossRate {
		m.dropped++
		return nil
	}
	q := m.queues[msg.To]
	if m.queueCap > 0 && len(q) >= m.queueCap {
		m.dropped++
		return ErrQueueOverflow
	}
	m.queues[msg.To] = append(q, msg)
	return nil
}

// Drain removes and returns all queued mail for site.
func (m *MemoryMail) Drain(site timestamp.SiteID) []Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queues[site]
	delete(m.queues, site)
	m.delivered += len(q)
	return q
}

// QueueLen returns the number of messages waiting for site.
func (m *MemoryMail) QueueLen(site timestamp.SiteID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queues[site])
}

// Stats returns (posted, dropped, delivered) counts.
func (m *MemoryMail) Stats() (posted, dropped, delivered int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.posted, m.dropped, m.delivered
}

// SiteMailer binds a MemoryMail to one sending site as a core.Mailer.
type SiteMailer struct {
	Mail *MemoryMail
	From timestamp.SiteID
}

// PostMail implements core.Mailer.
func (s SiteMailer) PostMail(to timestamp.SiteID, e store.Entry) error {
	return s.Mail.Post(Message{From: s.From, To: to, Entry: e})
}
