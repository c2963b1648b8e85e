package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// WireStats aggregates client-side pool and wire traffic counters. One
// instance is typically shared by every peer a process dials, so it
// describes the process's whole outbound gossip surface. All methods are
// safe for concurrent use and nil-safe: a nil *WireStats records nothing.
type WireStats struct {
	dials, redials, reuses   atomic.Int64
	open                     atomic.Int64
	bytesSent, bytesReceived atomic.Int64
	exchanges                atomic.Int64
	msgs                     atomic.Int64 // request round trips over TCP

	// Shard-vector anti-entropy accounting: exchanges that converged via
	// the narrow path, diverged shards they repaired, and attempts that
	// fell back to the global peel walk.
	shardVecExchanges, shardVecShards, shardVecDowngrades atomic.Int64

	// Batched-mail accounting: outbox drains shipped as one reqMailBatch
	// frame and the entries they carried.
	mailBatches, mailBatchEntries atomic.Int64

	// onExchange, when installed, receives one call per completed
	// anti-entropy exchange with the entries and bytes moved per direction
	// — the feed for entries-per-exchange and bytes-per-exchange
	// histograms.
	onExchange atomic.Pointer[func(entriesSent, entriesReceived int, bytesOut, bytesIn int64)]
}

// WireSnapshot is a point-in-time copy of WireStats, JSON-tagged for admin
// surfacing (gossipd's WIRE command).
type WireSnapshot struct {
	// Dials counts fresh TCP connections established; Redials the subset
	// that replaced a pooled connection found dead mid-request; Reuses the
	// requests that picked up an already-open pooled connection.
	Dials   int64 `json:"dials"`
	Redials int64 `json:"redials"`
	Reuses  int64 `json:"reuses"`
	// OpenConns is the number of currently open client connections.
	OpenConns int64 `json:"open_conns"`
	// BytesSent and BytesReceived count framed wire traffic, headers
	// included.
	BytesSent     int64 `json:"bytes_sent"`
	BytesReceived int64 `json:"bytes_received"`
	// Exchanges counts completed anti-entropy conversations.
	Exchanges int64 `json:"exchanges"`
	// MsgsBinary counts request round trips over TCP; the name dates from
	// when gob-framed ones were counted apart.
	MsgsBinary int64 `json:"msgs_binary"`
	// Shard-vector counters: anti-entropy exchanges that converged via the
	// bucket narrow path, the diverged buckets those exchanges repaired,
	// and conversations that fell to the single-bucket (whole-store) walk
	// because a bucket spent its peel budget or the final recompare
	// disagreed.
	ShardVecExchanges  int64 `json:"shardvec_exchanges"`
	ShardVecShards     int64 `json:"shardvec_shards"`
	ShardVecDowngrades int64 `json:"shardvec_downgrades"`
	// Batched-mail counters: outbox drains shipped as single mail-batch
	// frames and the entries those frames carried.
	MailBatches      int64 `json:"mail_batches"`
	MailBatchEntries int64 `json:"mail_batch_entries"`
	// UDPBytesSent is always zero and is not encoded: every request,
	// rumor pushes included, rides pooled TCP. It is kept only so code
	// written against the removed UDP fast path still compiles.
	UDPBytesSent int64 `json:"-"`
}

// Snapshot returns a copy of the counters. A nil receiver yields zeros.
func (w *WireStats) Snapshot() WireSnapshot {
	if w == nil {
		return WireSnapshot{}
	}
	return WireSnapshot{
		Dials:              w.dials.Load(),
		Redials:            w.redials.Load(),
		Reuses:             w.reuses.Load(),
		OpenConns:          w.open.Load(),
		BytesSent:          w.bytesSent.Load(),
		BytesReceived:      w.bytesReceived.Load(),
		Exchanges:          w.exchanges.Load(),
		MsgsBinary:         w.msgs.Load(),
		ShardVecExchanges:  w.shardVecExchanges.Load(),
		ShardVecShards:     w.shardVecShards.Load(),
		ShardVecDowngrades: w.shardVecDowngrades.Load(),
		MailBatches:        w.mailBatches.Load(),
		MailBatchEntries:   w.mailBatchEntries.Load(),
	}
}

// SetExchangeObserver installs fn, called once per completed anti-entropy
// exchange with the entries and bytes moved in each direction; nil removes
// it.
func (w *WireStats) SetExchangeObserver(fn func(entriesSent, entriesReceived int, bytesOut, bytesIn int64)) {
	if w == nil {
		return
	}
	if fn == nil {
		w.onExchange.Store(nil)
		return
	}
	w.onExchange.Store(&fn)
}

func (w *WireStats) noteDial(redial bool) {
	if w == nil {
		return
	}
	w.dials.Add(1)
	if redial {
		w.redials.Add(1)
	}
	w.open.Add(1)
}

func (w *WireStats) noteReuse() {
	if w != nil {
		w.reuses.Add(1)
	}
}

func (w *WireStats) noteClose() {
	if w != nil {
		w.open.Add(-1)
	}
}

// noteMsg counts one request round trip and the framed bytes it moved.
func (w *WireStats) noteMsg(out, in int64) {
	if w == nil {
		return
	}
	w.msgs.Add(1)
	w.bytesSent.Add(out)
	w.bytesReceived.Add(in)
}

func (w *WireStats) noteShardVec(shards int) {
	if w == nil {
		return
	}
	w.shardVecExchanges.Add(1)
	w.shardVecShards.Add(int64(shards))
}

func (w *WireStats) noteShardVecDowngrade() {
	if w != nil {
		w.shardVecDowngrades.Add(1)
	}
}

func (w *WireStats) noteMailBatch(entries int) {
	if w == nil {
		return
	}
	w.mailBatches.Add(1)
	w.mailBatchEntries.Add(int64(entries))
}

func (w *WireStats) noteExchange(entriesSent, entriesReceived int, bytesOut, bytesIn int64) {
	if w == nil {
		return
	}
	w.exchanges.Add(1)
	if fn := w.onExchange.Load(); fn != nil {
		(*fn)(entriesSent, entriesReceived, bytesOut, bytesIn)
	}
}

// pool keeps persistent framed sessions to one peer address: dial once,
// reuse across requests, discard on error, transparently redial when a
// pooled connection turns out to be dead. Bounded: at most size idle
// sessions are retained; requests beyond that dial and close per use.
type pool struct {
	addr    string
	timeout time.Duration // dial timeout and per-request deadline
	size    int           // max idle sessions retained
	stats   *WireStats

	mu     sync.Mutex
	idle   []*session
	closed bool
}

func newPool(addr string, size int, timeout time.Duration, stats *WireStats) *pool {
	return &pool{addr: addr, size: size, timeout: timeout, stats: stats}
}

// get returns a session ready for one request. reused reports whether it
// came from the idle set (and therefore may be stale).
func (p *pool) get() (s *session, reused bool, err error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 && !p.closed {
		s = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		p.stats.noteReuse()
		return s, true, nil
	}
	p.mu.Unlock()
	return p.dial(false)
}

// dial opens a fresh session. redial marks it as a replacement for a dead
// pooled connection, for stats attribution.
func (p *pool) dial(redial bool) (*session, bool, error) {
	conn, err := net.DialTimeout("tcp", p.addr, p.timeout)
	if err != nil {
		return nil, false, fmt.Errorf("transport: dial %s: %w", p.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	p.stats.noteDial(redial)
	s := newSession(conn, maxWireBytes)
	if err := s.clientHandshake(time.Now().Add(p.timeout)); err != nil {
		p.discard(s)
		return nil, false, err
	}
	return s, false, nil
}

// put returns a healthy session to the idle set, or closes it when the
// pool is full or closed.
func (p *pool) put(s *session) {
	s.setDeadline(time.Time{})
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.size {
		p.idle = append(p.idle, s)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.discard(s)
}

// discard closes a session that failed or cannot be pooled.
func (p *pool) discard(s *session) {
	_ = s.Close()
	p.stats.noteClose()
}

// close drops every idle session and stops future pooling.
func (p *pool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, s := range idle {
		p.discard(s)
	}
}

// openIdle reports the number of idle pooled sessions (for tests).
func (p *pool) openIdle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// roundTrip runs one request/response over a pooled session with a
// per-request deadline, returning the framed bytes moved in each
// direction. A request that fails on a reused session is retried once on a
// fresh connection: the failure usually means the remote restarted or
// idled the connection out, and every request in this protocol is
// idempotent (re-applying an entry is a no-op merge).
func (p *pool) roundTrip(req *request, resp *response) (bytesOut, bytesIn int64, err error) {
	s, reused, err := p.get()
	if err != nil {
		return 0, 0, err
	}
	bytesOut, bytesIn, err = p.do(s, req, resp)
	if err != nil && reused {
		p.discard(s)
		var o, i int64
		if s, _, err = p.dial(true); err != nil {
			return bytesOut, bytesIn, err
		}
		o, i, err = p.do(s, req, resp)
		bytesOut += o
		bytesIn += i
	}
	if err != nil {
		p.discard(s)
		return bytesOut, bytesIn, err
	}
	p.put(s)
	return bytesOut, bytesIn, nil
}

// do performs one request/response on s under the pool's deadline.
func (p *pool) do(s *session, req *request, resp *response) (bytesOut, bytesIn int64, err error) {
	if p.timeout > 0 {
		s.setDeadline(time.Now().Add(p.timeout))
	}
	startOut, startIn := s.bytesOut, s.bytesIn
	err = s.writeRequest(req)
	if err == nil {
		err = s.readResponse(resp)
	}
	bytesOut, bytesIn = s.bytesOut-startOut, s.bytesIn-startIn
	p.stats.noteMsg(bytesOut, bytesIn)
	return bytesOut, bytesIn, err
}
