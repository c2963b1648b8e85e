package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/obs/cluster"
	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// Wire protocol: persistent framed sessions (see frame.go) carrying many
// request/response pairs per TCP connection. The anti-entropy exchange is
// the §1.3/§1.5 incremental scheme, ids first: the caller offers the ids
// of its recent updates with its live checksum, and gets back want-bits,
// the peer's recent entries the offer does not cover, and the peer's
// checksum; only wanted entries follow, on a checksum request. On mismatch
// the two sides peel back through their databases in reverse-timestamp
// batches, re-comparing checksums after each batch, so a conversation
// ships O(δ) entries for δ differing keys. The walk is narrowed first: the
// two sides compare per-bucket checksum vectors folded to their common
// shard count and peel only the diverged buckets; the whole-store walk is
// bucket 0 of 1. A full database swap survives only as a capped last
// resort.
type reqKind int

const (
	// Kind 1 carried one mailed entry per round trip. Every mail now
	// leaves through the outbox as a reqMailBatch, so it is retired and
	// answered "unknown request kind".
	_ reqKind = iota + 1
	reqPushRumors
	reqRumorOffer // hot-rumor ids out; want-bits + the peer's uncovered hot rumors back
	// Kind 4 carried round 0 as full recent entries, which the server
	// applied. It is retired and answered "unknown request kind": a
	// value-less id sent under it would read as a death certificate.
	_
	reqFullSync // full live-database swap (capped last resort)
	reqChecksum // live checksum probe (§1.5 combined scheme); applies any entries first
	// Kind 7 carried one batch of the whole-store peel walk. That walk is
	// bucket 0 of 1 on reqPeelBackShard, so it is retired and answered
	// "unknown request kind".
	_
	reqShardVector   // bucket live-checksum vector at the pair's common shard count
	reqPeelBackShard // one bucket-scoped peel batch + that bucket's checksum (§1.3)
	reqMailBatch     // one outbox drain: many mail entries in one frame
	reqSyncOffer     // round 0: recent-update ids + checksum out; want-bits + uncovered recent entries back
)

// kindName names a request kind for logs and metric labels.
func (k reqKind) kindName() string {
	switch k {
	case reqPushRumors:
		return "push-rumors"
	case reqRumorOffer:
		return "rumor-offer"
	case reqSyncOffer:
		return "sync"
	case reqFullSync:
		return "full-sync"
	case reqChecksum:
		return "checksum"
	case reqShardVector:
		return "shard-vector"
	case reqPeelBackShard:
		return "peel-back-shard"
	case reqMailBatch:
		return "mail-batch"
	default:
		return "unknown"
	}
}

type request struct {
	Kind     reqKind
	From     timestamp.SiteID
	Entries  []store.Entry
	Checksum uint64
	Now      int64
	Tau      int64 // recent-update window (reqSyncOffer)
	Tau1     int64 // death-certificate dormancy threshold
	// Bound and Limit drive the server's side of the peel-back walk
	// (reqPeelBackShard): the server returns up to Limit entries of the
	// bucket strictly older than Bound, newest first. The server is
	// stateless across rounds; the caller echoes back the Bound each
	// response hands it.
	Bound timestamp.T
	Limit int
	// Hops carries one provenance envelope per entry in Entries when the
	// sender traces. nil — the common untraced case — costs one zero byte.
	Hops []trace.Hop
	// Digests piggybacks the sender's cluster-digest view on reqSyncOffer and
	// reqRumorOffer conversations (the observatory's epidemic channel).
	// nil when the observatory is off: one zero byte on the wire.
	Digests []cluster.Digest
	// ShardCount is the sender's store shard count on reqShardVector, and
	// the bucket count m on reqPeelBackShard, whose Shard is the bucket b
	// in [0, m) (see store.ChecksumBucket). Unused, the two cost two zero
	// bytes.
	Shard      int
	ShardCount int
	// MailQueuedNanos and MailCoalesced are a reqMailBatch's sender-side
	// outbox telemetry: the queueing age of the batch's oldest entry and
	// the supersessions coalesced away while it queued (two zero bytes on
	// other kinds).
	MailQueuedNanos int64
	MailCoalesced   int64
}

type response struct {
	Needed   []bool
	Entries  []store.Entry
	Checksum uint64
	Now      int64
	// Bound and More resume the server's peel-back walk: Bound is the
	// oldest index record the server examined, More whether records older
	// than it remain.
	Bound timestamp.T
	More  bool
	// Hops mirrors request.Hops for the response's Entries.
	Hops []trace.Hop
	Err  string
	// Digests mirrors request.Digests: the responder's view, piggybacked
	// back so digest exchange is bidirectional like the data exchange.
	Digests []cluster.Digest
	// ShardCount and Vector answer reqShardVector with the bucket count m,
	// the smaller of the two stores' shard counts, and the responder's m
	// bucket live checksums. For reqPeelBackShard the Checksum field
	// carries the requested bucket's live checksum instead of the global
	// one.
	ShardCount int
	Vector     []uint64
}

// Server-side session limits: an idle session is reaped after
// serverIdleTimeout without a request; a response write gets
// serverWriteTimeout.
const (
	serverIdleTimeout  = 2 * time.Minute
	serverWriteTimeout = 30 * time.Second
)

// ServerOptions tunes a Server.
type ServerOptions struct {
	// Codec names the wire format and accepts only "" or "binary", the one
	// format there is; ServeWith refuses any other value.
	Codec string
	// DisableUDP is ignored: a server binds no datagram socket. It is kept
	// only so code written against the removed UDP fast path still
	// compiles.
	DisableUDP bool
}

// checkCodec validates a Codec option: "" and "binary" name the one wire
// format, and anything else is an error rather than a guess.
func checkCodec(name string) error {
	if name == "" || name == "binary" {
		return nil
	}
	return fmt.Errorf("transport: unknown codec %q (the only wire format is \"binary\")", name)
}

// Server exposes a node.Node to remote TCPPeers over persistent framed
// sessions.
type Server struct {
	node *node.Node
	ln   net.Listener
	wg   sync.WaitGroup
	mu   sync.Mutex
	done bool

	conns map[net.Conn]struct{}

	log      *slog.Logger
	observer func(kind string, d time.Duration)
}

// Serve starts a server for n on addr ("host:port", ":0" for an ephemeral
// port) with default options. It returns immediately; use Addr for the
// bound address and Close to stop.
func Serve(n *node.Node, addr string) (*Server, error) {
	return ServeWith(n, addr, ServerOptions{})
}

// ServeWith starts a server with explicit options.
func ServeWith(n *node.Node, addr string, opts ServerOptions) (*Server, error) {
	if err := checkCodec(opts.Codec); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &Server{
		node:  n,
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
		log:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// SetLogger installs a structured logger for request handling (served
// requests at Debug, decode failures at Warn). Call before traffic
// arrives; nil restores the discard logger.
func (s *Server) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.mu.Lock()
	s.log = l
	s.mu.Unlock()
}

// SetObserver installs a per-request hook (kind, handling duration) used
// to bridge transport traffic into a metrics registry. Call before traffic
// arrives.
func (s *Server) SetObserver(fn func(kind string, d time.Duration)) {
	s.mu.Lock()
	s.observer = fn
	s.mu.Unlock()
}

func (s *Server) instruments() (*slog.Logger, func(string, time.Duration)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log, s.observer
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every open session, and waits for
// in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.done = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// track registers an accepted connection; it reports false (and closes the
// conn) when the server is already shutting down.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		_ = conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closing() {
				return
			}
			continue
		}
		if !s.track(conn) {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

// handle serves one persistent session: after the hello, requests are read
// and answered on the same framed streams until the client disconnects, the
// session idles out, or the stream breaks. One request/response pair is
// kept alive across the loop so a steady-state session serves without
// allocating.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	sess := newSession(conn, maxWireBytes)
	_ = conn.SetReadDeadline(time.Now().Add(serverIdleTimeout))
	if err := sess.serverHandshake(); err != nil {
		return
	}
	log, observe := s.instruments()
	// slog's variadic attrs allocate even against a discard handler, so the
	// per-request Debug line is gated on the handler level once per session.
	debug := log.Enabled(context.Background(), slog.LevelDebug)
	var req request
	var resp response
	for {
		_ = conn.SetReadDeadline(time.Now().Add(serverIdleTimeout))
		if err := sess.readRequest(&req); err != nil {
			if !errors.Is(err, io.EOF) && !s.closing() {
				log.Warn("gossip session ended abnormally",
					"remote", conn.RemoteAddr().String(), "err", err)
			}
			return
		}
		start := time.Now()
		resp = s.dispatch(req)
		d := time.Since(start)
		if observe != nil {
			observe(req.Kind.kindName(), d)
		}
		if debug {
			log.Debug("gossip request served", "kind", req.Kind.kindName(),
				"from", int(req.From), "entries", len(req.Entries), "dur", d)
		}
		_ = conn.SetWriteDeadline(time.Now().Add(serverWriteTimeout))
		if err := sess.writeResponse(&resp); err != nil {
			log.Warn("gossip response write failed",
				"remote", conn.RemoteAddr().String(), "err", err)
			return
		}
	}
}

// peelLimitCap bounds the batch size a remote caller can demand from the
// server-side peel walk.
const peelLimitCap = 8192

// clampPeelLimit sanitises a wire-supplied batch size.
func clampPeelLimit(limit int) int {
	if limit <= 0 {
		return core.DefaultPeelBatch
	}
	if limit > peelLimitCap {
		return peelLimitCap
	}
	return limit
}

func (s *Server) dispatch(req request) response {
	switch req.Kind {
	case reqMailBatch:
		return response{Needed: s.node.HandleMailBatch(node.MailBatch{
			From:        req.From,
			Entries:     req.Entries,
			Hops:        req.Hops,
			QueuedNanos: req.MailQueuedNanos,
			Coalesced:   int(req.MailCoalesced),
		})}
	case reqPushRumors:
		return response{Needed: s.node.HandleRumors(req.Entries, req.Hops)}
	case reqRumorOffer:
		want, entries, hops := s.node.HandleOffer(req.Entries)
		return response{Needed: want, Entries: entries, Hops: hops, Digests: s.swapDigests(req.Digests)}
	case reqSyncOffer:
		st := s.node.Store()
		now := maxInt64(st.Now(), req.Now)
		want, recent, hops := s.node.HandleSyncOffer(req.Entries, now, req.Tau)
		return response{
			Needed:   want,
			Entries:  recent,
			Hops:     hops,
			Checksum: st.ChecksumLive(now, req.Tau1),
			Now:      now,
			Digests:  s.swapDigests(req.Digests),
		}
	case reqFullSync:
		st := s.node.Store()
		// The snapshot is read after the apply, so it already carries every
		// certificate the entries woke.
		needed, _ := s.node.ApplyRepairs(req.Entries, req.Hops, req.From, trace.MechAntiEntropy, req.Tau1)
		now := maxInt64(st.Now(), req.Now)
		full := st.LiveSnapshot(now, req.Tau1)
		return response{
			Needed:   needed,
			Entries:  full,
			Hops:     s.node.Tracer().Envelopes(full),
			Checksum: st.ChecksumLive(now, req.Tau1),
			Now:      now,
		}
	case reqChecksum:
		// Entries, when present, are anti-entropy repairs the caller ships
		// (an offer's wanted entries, certificates it woke): applied first,
		// so the checksum answers for the replica they leave. Without them
		// Now is zero and this is the plain probe.
		st := s.node.Store()
		needed, awakened := s.node.ApplyRepairs(req.Entries, req.Hops, req.From, trace.MechAntiEntropy, req.Tau1)
		return response{
			Needed:   needed,
			Entries:  awakened,
			Hops:     s.node.Tracer().Envelopes(awakened),
			Checksum: st.ChecksumLive(maxInt64(st.Now(), req.Now), req.Tau1),
		}
	case reqShardVector:
		st := s.node.Store()
		if !isBucketCount(req.ShardCount) {
			return response{Err: fmt.Sprintf("shard count %d is not a power of two", req.ShardCount)}
		}
		now := maxInt64(st.Now(), req.Now)
		m := min(req.ShardCount, st.ShardCount())
		return response{
			Checksum:   st.ChecksumLive(now, req.Tau1),
			Now:        now,
			ShardCount: m,
			Vector:     st.AppendChecksumVector(nil, m, now, req.Tau1),
		}
	case reqPeelBackShard:
		st := s.node.Store()
		if m := req.ShardCount; !isBucketCount(m) || m > st.ShardCount() || req.Shard < 0 || req.Shard >= m {
			return response{Err: fmt.Sprintf("bucket %d of %d invalid against %d shards",
				req.Shard, req.ShardCount, st.ShardCount())}
		}
		needed, awakened := s.node.ApplyRepairs(req.Entries, req.Hops, req.From, trace.MechPeelBack, req.Tau1)
		now := maxInt64(st.Now(), req.Now)
		batch, next, more := st.PeelBucket(req.Shard, req.ShardCount, req.Bound, clampPeelLimit(req.Limit), now, req.Tau1)
		batch = withAwakened(batch, awakened)
		return response{
			Needed:   needed,
			Entries:  batch,
			Hops:     s.node.Tracer().Envelopes(batch),
			Checksum: st.ChecksumBucket(req.Shard, req.ShardCount, now, req.Tau1),
			Now:      now,
			Bound:    next,
			More:     more,
		}
	default:
		return response{Err: fmt.Sprintf("unknown request kind %d", req.Kind)}
	}
}

// isBucketCount reports whether m can count buckets: a power of two, at
// least 1. A store folds to any such m up to its own shard count.
func isBucketCount(m int) bool { return m > 0 && m&(m-1) == 0 }

// swapDigests merges digests a caller piggybacked into this node's
// directory and returns the local view to piggyback back. All nil-safe:
// with the observatory off both directions are nil and cost nothing.
func (s *Server) swapDigests(in []cluster.Digest) []cluster.Digest {
	dir := s.node.Digests()
	if dir == nil && in == nil {
		return nil
	}
	dir.Merge(in)
	return dir.Share()
}

// withAwakened appends to a peel batch the certificates the request's
// entries woke (node.ApplyRepairs) that the batch, read after the apply,
// does not already carry.
func withAwakened(batch, awakened []store.Entry) []store.Entry {
next:
	for _, re := range awakened {
		for _, e := range batch {
			if e.Key == re.Key {
				continue next
			}
		}
		batch = append(batch, re)
	}
	return batch
}

// hopAt returns hops[i], or the zero (no-envelope) Hop when the sender
// shipped no envelopes or fewer than entries.
func hopAt(hops []trace.Hop, i int) trace.Hop {
	if i < len(hops) {
		return hops[i]
	}
	return trace.Hop{}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// PeerOptions tunes a TCPPeer's pooled wire protocol. The zero value
// selects the defaults noted per field.
type PeerOptions struct {
	// Timeout is the dial timeout and the per-request deadline (default
	// 10s). Unlike a per-connection deadline, it re-arms for every
	// request, so long-lived pooled sessions never time out while healthy
	// traffic flows.
	Timeout time.Duration
	// PoolSize bounds the idle persistent sessions retained per peer
	// (default 2); requests beyond it dial and close their own.
	PoolSize int
	// MaxPeelRounds caps the peel-back batches per anti-entropy
	// conversation before falling back to a full database swap (default
	// 32).
	MaxPeelRounds int
	// Codec names the wire format and accepts only "" or "binary", the one
	// format there is. Any other value makes every request fail with the
	// error ServeWith would return for it.
	Codec string
	// UDP is ignored: rumor pushes ride pooled TCP like every other
	// request. It is kept only so code written against the removed UDP
	// fast path still compiles.
	UDP bool
	// ShardRepairWorkers bounds the diverged buckets repaired concurrently
	// during one shard-vector exchange (default 4). Each worker runs its
	// own pooled session, so the effective parallelism is also bounded by
	// PoolSize plus overflow dials.
	ShardRepairWorkers int
	// Stats, when set, receives pool and wire-traffic accounting; share
	// one WireStats across all peers of a process.
	Stats *WireStats
	// Digests, when set, is the calling node's cluster-digest directory:
	// anti-entropy and rumor-offer conversations piggyback its Share() and
	// merge what the peer sends back. Nil disables the piggyback.
	Digests *cluster.Directory
}

// Defaults for PeerOptions zero values.
const (
	defaultPeerTimeout        = 10 * time.Second
	defaultPoolSize           = 2
	defaultMaxPeelRounds      = 32
	defaultShardRepairWorkers = 4
)

func (o PeerOptions) withDefaults() PeerOptions {
	if o.Timeout <= 0 {
		o.Timeout = defaultPeerTimeout
	}
	if o.PoolSize <= 0 {
		o.PoolSize = defaultPoolSize
	}
	if o.MaxPeelRounds <= 0 {
		o.MaxPeelRounds = defaultMaxPeelRounds
	}
	if o.ShardRepairWorkers <= 0 {
		o.ShardRepairWorkers = defaultShardRepairWorkers
	}
	return o
}

// TCPPeer is a node.Peer implemented over the pooled wire protocol above.
// All methods are safe for concurrent use; concurrent requests each check
// a session out of the pool (dialing extras as needed).
type TCPPeer struct {
	id   timestamp.SiteID
	addr string
	opts PeerOptions
	pool *pool
	err  error // a bad Codec option, returned by every request
}

var _ node.Peer = (*TCPPeer)(nil)

// NewTCPPeer addresses a remote replica with default options. The caller
// supplies the remote site ID (the membership list carries IDs alongside
// addresses).
func NewTCPPeer(id timestamp.SiteID, addr string) *TCPPeer {
	return NewTCPPeerWith(id, addr, PeerOptions{})
}

// NewTCPPeerWith addresses a remote replica with explicit options.
func NewTCPPeerWith(id timestamp.SiteID, addr string, opts PeerOptions) *TCPPeer {
	opts = opts.withDefaults()
	return &TCPPeer{
		id:   id,
		addr: addr,
		opts: opts,
		pool: newPool(addr, opts.PoolSize, opts.Timeout, opts.Stats),
		err:  checkCodec(opts.Codec),
	}
}

// ID implements node.Peer.
func (p *TCPPeer) ID() timestamp.SiteID { return p.id }

// Addr returns the remote address.
func (p *TCPPeer) Addr() string { return p.addr }

// Close releases the peer's pooled connections. The peer remains usable;
// subsequent requests dial fresh sessions.
func (p *TCPPeer) Close() error {
	p.pool.close()
	return nil
}

// wireCall bundles one request/response pair plus shard-vector scratch,
// pooled so steady-state calls allocate nothing.
type wireCall struct {
	req               request
	resp              response
	bytesOut, bytesIn int64
	vecBuf            []uint64 // the local bucket vector (reqShardVector)
}

var wireCallPool = sync.Pool{New: func() any { return new(wireCall) }}

func getWireCall() *wireCall { return wireCallPool.Get().(*wireCall) }

// putWireCall clears the call before pooling it so no request payload (or
// key/value memory) stays pinned. Response slices handed out to callers
// are safe: every decode allocates fresh ones.
func putWireCall(c *wireCall) {
	c.req = request{}
	c.resp = response{}
	c.bytesOut, c.bytesIn = 0, 0
	c.vecBuf = c.vecBuf[:0]
	wireCallPool.Put(c)
}

// call runs c's request over the pool, accumulating framed bytes moved and
// surfacing remote errors.
func (p *TCPPeer) call(c *wireCall) error {
	if p.err != nil {
		return p.err
	}
	o, i, err := p.pool.roundTrip(&c.req, &c.resp)
	c.bytesOut += o
	c.bytesIn += i
	if err != nil {
		return fmt.Errorf("transport: %s: %w", p.addr, err)
	}
	if c.resp.Err != "" {
		return fmt.Errorf("transport: %s: remote error: %s", p.addr, c.resp.Err)
	}
	return nil
}

// MailBatch implements node.Peer: every outbox drain, a single entry
// included, rides one reqMailBatch frame, so the batch telemetry describes
// all mail.
func (p *TCPPeer) MailBatch(b node.MailBatch) error {
	if len(b.Entries) == 0 {
		return nil
	}
	c := getWireCall()
	defer putWireCall(c)
	c.req = request{
		Kind:            reqMailBatch,
		From:            b.From,
		Entries:         b.Entries,
		Hops:            b.Hops,
		MailQueuedNanos: b.QueuedNanos,
		MailCoalesced:   int64(b.Coalesced),
	}
	if err := p.call(c); err != nil {
		return err
	}
	p.opts.Stats.noteMailBatch(len(b.Entries))
	return nil
}

// PushRumors implements node.Peer: one pooled round trip, like every
// other request kind.
func (p *TCPPeer) PushRumors(entries []store.Entry, hops []trace.Hop) ([]bool, error) {
	c := getWireCall()
	defer putWireCall(c)
	c.req = request{Kind: reqPushRumors, Entries: entries, Hops: hops}
	if err := p.call(c); err != nil {
		return nil, err
	}
	return c.resp.Needed, nil
}

// OfferRumors implements node.Peer. The ids ride the request's entries
// section as value-less, retention-less entries and the want-bits come back
// in the Needed bitset. When the cluster observatory is on, the offer
// carries the local digest view out and merges the peer's back.
func (p *TCPPeer) OfferRumors(ids []store.Entry) ([]bool, []store.Entry, []trace.Hop, error) {
	c := getWireCall()
	defer putWireCall(c)
	c.req = request{Kind: reqRumorOffer, Entries: ids, Digests: p.opts.Digests.Share()}
	if err := p.call(c); err != nil {
		return nil, nil, nil, err
	}
	p.opts.Digests.Merge(c.resp.Digests)
	return c.resp.Needed, c.resp.Entries, c.resp.Hops, nil
}

// Checksum implements node.Peer.
func (p *TCPPeer) Checksum(tau1 int64) (uint64, error) {
	c := getWireCall()
	defer putWireCall(c)
	c.req = request{Kind: reqChecksum, Tau1: tau1}
	if err := p.call(c); err != nil {
		return 0, err
	}
	return c.resp.Checksum, nil
}

// AntiEntropy implements node.Peer: the §1.3/§1.5 incremental exchange
// over the wire. Round 0 is an offer: the ids of the recent-update window
// go out with the live checksum, and the reply carries a want-bit per id,
// the peer's own recent entries the offer does not cover, and the peer's
// checksum. Only when some bit is set do the wanted entries follow, on a
// checksum request that re-reads the peer's checksum after applying them,
// so a pair whose windows agree settles in one round trip and ships no
// entry. On mismatch the two sides compare bucket checksum vectors folded
// to their common shard count and peel back through the diverged buckets
// in reverse-timestamp batches, re-comparing the bucket checksum after
// every batch and stopping as soon as it agrees — O(δ) entries shipped for
// δ differing keys. A bucket that spends MaxPeelRounds batches, or a final
// recompare that still disagrees, sends the conversation to the same walk
// over bucket 0 of 1, the whole store; only when that too spends its
// budget does the conversation degrade to the full swap. Throughout, with
// cfg.ReactivateDormant set, an obsolete entry that meets a dormant death
// certificate on either side wakes it (§2.2), and the awakened certificate
// crosses to the other side before the next compare.
//
// Of cfg only Tau, Tau1, BatchSize and ReactivateDormant are read. The
// ladder above is the one wire conversation, always push-pull:
// cfg.Strategy and cfg.Mode are ignored.
func (p *TCPPeer) AntiEntropy(cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer) (core.ExchangeStats, error) {
	var st core.ExchangeStats
	c := getWireCall()
	defer putWireCall(c)

	now := local.Now()
	var ids []store.Entry
	if cfg.Tau > 0 {
		ids = local.RecentIDs(now, cfg.Tau)
	}
	c.req = request{
		Kind:     reqSyncOffer,
		From:     local.Site(),
		Entries:  ids,
		Checksum: local.ChecksumLive(now, cfg.Tau1),
		Now:      now,
		Tau:      cfg.Tau,
		Tau1:     cfg.Tau1,
		Digests:  p.opts.Digests.Share(),
	}
	if err := p.call(c); err != nil {
		return st, err
	}
	p.opts.Digests.Merge(c.resp.Digests)
	now = maxInt64(now, c.resp.Now)
	sum := c.resp.Checksum
	ship := append(wantedEntries(local, ids, c.resp.Needed),
		p.applyReceived(cfg, local, c.resp.Entries, c.resp.Hops, trace.MechAntiEntropy, &st)...)
	if len(ship) > 0 {
		var err error
		if sum, err = p.carry(c, cfg, local, tr, ship, now, &st); err != nil {
			return st, err
		}
	}
	st.ChecksumsCompared++
	if local.ChecksumLive(now, cfg.Tau1) == sum {
		p.finishExchange(c, &st)
		return st, nil
	}

	return p.repair(cfg, local, tr, now, c, st)
}

// repair runs the ladder after round 0 disagreed: the bucket vector and
// the diverged buckets (shardRepair), then, when a bucket spent its peel
// budget or the terminal recompare still disagrees, the walk of bucket 0
// of 1 — the whole store — and last the capped full swap. st comes by
// value: the repair workers take its address, which would otherwise move
// the caller's stats to the heap on the allocation-free in-sync path.
func (p *TCPPeer) repair(cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer, now int64, c *wireCall, st core.ExchangeStats) (core.ExchangeStats, error) {
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = core.DefaultPeelBatch
	}
	done, err := p.shardRepair(cfg, local, tr, now, batch, c, &st)
	if err != nil {
		return st, err
	}
	if !done {
		p.opts.Stats.noteShardVecDowngrade()
		var mu sync.Mutex
		err := p.repairBucket(cfg, local, tr, 0, 1, now, batch, &mu, c, &st)
		if errors.Is(err, errPeelBudget) {
			// Capped last resort: the peel budget is spent and the replicas
			// still disagree — swap full live databases in one round trip.
			st.FullCompare = true
			full := local.LiveSnapshot(now, cfg.Tau1)
			c.req = request{
				Kind: reqFullSync, From: local.Site(), Entries: full,
				Hops: tr.Envelopes(full), Now: now, Tau1: cfg.Tau1,
			}
			_, err = p.exchange(c, cfg, local, tr, now, trace.MechAntiEntropy, &st)
		}
		if err != nil {
			return st, err
		}
	}
	p.finishExchange(c, &st)
	return st, nil
}

// wantedEntries reads the full entries for the ids whose want-bit is set.
func wantedEntries(local *store.Store, ids []store.Entry, want []bool) []store.Entry {
	var out []store.Entry
	for i, id := range ids {
		if i < len(want) && want[i] {
			if e, ok := local.Get(id.Key); ok {
				out = append(out, e)
			}
		}
	}
	return out
}

// exchange sends c's request, whose Entries are this side's shipment, and
// settles the reply. Certificates the reply woke here go straight back on
// a carrier, and the peer's checksum after applying them is returned in
// place of the reply's; c keeps the reply itself.
func (p *TCPPeer) exchange(c *wireCall, cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer, now int64, mech trace.Mechanism, st *core.ExchangeStats) (uint64, error) {
	if err := p.call(c); err != nil {
		return 0, err
	}
	if awake := p.settle(cfg, local, c, mech, st); len(awake) > 0 {
		return p.carry(c, cfg, local, tr, awake, now, st)
	}
	return c.resp.Checksum, nil
}

// carry ships entries on a checksum request: the peer applies them as
// anti-entropy repairs, then answers with its live checksum, which carry
// returns. Certificates that applying them woke on the peer come back in
// the answer and are applied here; any that the answer wakes here in turn
// ride another carrier. Each key wakes at most once — its certificate is
// live afterwards — so the loop ends. The round trips run on their own
// call, whose bytes are added to agg.
func (p *TCPPeer) carry(agg *wireCall, cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer, entries []store.Entry, now int64, st *core.ExchangeStats) (uint64, error) {
	k := getWireCall()
	defer func() {
		agg.bytesOut += k.bytesOut
		agg.bytesIn += k.bytesIn
		putWireCall(k)
	}()
	for {
		k.req = request{
			Kind: reqChecksum, From: local.Site(),
			Entries: entries, Hops: tr.Envelopes(entries),
			Now: now, Tau1: cfg.Tau1,
		}
		if err := p.call(k); err != nil {
			return 0, err
		}
		if entries = p.settle(cfg, local, k, trace.MechAntiEntropy, st); len(entries) == 0 {
			return k.resp.Checksum, nil
		}
	}
}

// settle books the round trip in c, whose request shipped this side's
// entries: those the reply's Needed bits report applied at the peer
// (counted only — redistribution and span stamping act on this side's own
// repairs), then the reply's own entries, applied here. It returns the
// dormant certificates the reply woke here, which the caller must ship
// back.
func (p *TCPPeer) settle(cfg core.ResolveConfig, local *store.Store, c *wireCall, mech trace.Mechanism, st *core.ExchangeStats) []store.Entry {
	st.EntriesSent += len(c.req.Entries)
	for i, e := range c.req.Entries {
		if i < len(c.resp.Needed) && c.resp.Needed[i] {
			st.NoteApplied(p.id, e.Key)
		}
	}
	return p.applyReceived(cfg, local, c.resp.Entries, c.resp.Hops, mech, st)
}

// shardRepair is the narrow path of an anti-entropy conversation: one
// round trip fetches the peer's bucket vector folded to m, the smaller of
// the two stores' shard counts, and only the buckets whose checksums
// differ from the local fold are peeled — by a bounded pool of workers
// over concurrent pooled sessions. It reports done=true when the exchange
// converged (or provably cannot make further live progress); done=false
// with a nil error means a bucket spent its peel budget or the terminal
// recompare disagreed, and the caller walks the whole store. agg
// accumulates the byte counters of every session the repair used.
func (p *TCPPeer) shardRepair(cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer, now int64, batch int, agg *wireCall, st *core.ExchangeStats) (bool, error) {
	v := getWireCall()
	defer func() {
		agg.bytesOut += v.bytesOut
		agg.bytesIn += v.bytesIn
		putWireCall(v)
	}()

	v.req = request{
		Kind:       reqShardVector,
		From:       local.Site(),
		Now:        now,
		Tau1:       cfg.Tau1,
		ShardCount: local.ShardCount(),
	}
	if err := p.call(v); err != nil {
		return false, err
	}
	st.ChecksumsCompared++
	now = maxInt64(now, v.resp.Now)
	m := v.resp.ShardCount
	if !isBucketCount(m) || m > local.ShardCount() || len(v.resp.Vector) != m {
		return false, fmt.Errorf("transport: %s: %d bucket sums for %d buckets against %d shards",
			p.addr, len(v.resp.Vector), m, local.ShardCount())
	}
	mine := local.AppendChecksumVector(v.vecBuf[:0], m, now, cfg.Tau1)
	v.vecBuf = mine[:0]
	var diverged []int
	for b, sum := range mine {
		if sum != v.resp.Vector[b] {
			diverged = append(diverged, b)
		}
	}

	if len(diverged) > 0 {
		workers := min(p.opts.ShardRepairWorkers, len(diverged))
		var (
			next     atomic.Int64
			failed   atomic.Bool
			mu       sync.Mutex // guards st, agg and firstErr
			firstErr error
			wg       sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(diverged) || failed.Load() {
						return
					}
					if err := p.repairBucket(cfg, local, tr, diverged[i], m, now, batch, &mu, agg, st); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						failed.Store(true)
					}
				}
			}()
		}
		wg.Wait()
		if errors.Is(firstErr, errPeelBudget) {
			return false, nil
		}
		if firstErr != nil {
			return false, firstErr
		}
		st.ShardsRepaired += len(diverged)
	}

	// Terminal recompare: the global live checksums must now agree.
	// Anything still skewed (a dormancy transition raced the repair, a
	// concurrent writer) is the whole-store walk's problem.
	v.req = request{Kind: reqChecksum, Tau1: cfg.Tau1}
	if err := p.call(v); err != nil {
		return false, err
	}
	st.ChecksumsCompared++
	if local.ChecksumLive(maxInt64(now, local.Now()), cfg.Tau1) != v.resp.Checksum {
		return false, nil
	}
	p.opts.Stats.noteShardVec(len(diverged))
	return true, nil
}

// errPeelBudget reports a bucket walk that spent MaxPeelRounds batches
// without reconciling its bucket.
var errPeelBudget = errors.New("transport: peel budget spent")

// shardProbeBatch is the opening batch size of a bucket walk (it ramps ×4
// per round up to the configured BatchSize).
const shardProbeBatch = 8

// repairBucket reconciles bucket b of m: both sides peel the bucket's slice
// of their timestamp index in reverse order, re-comparing the bucket
// checksum after every batch, until the checksums agree or both walks are
// exhausted; errPeelBudget reports MaxPeelRounds batches spent first. It
// may run on a worker goroutine: it books into its own stats and folds
// them and its byte counts into st and agg, the state it shares, under mu
// when it returns.
func (p *TCPPeer) repairBucket(cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer, b, m int, now int64, batch int, mu *sync.Mutex, agg *wireCall, st *core.ExchangeStats) error {
	c := getWireCall()
	var own core.ExchangeStats
	defer func() {
		mu.Lock()
		agg.bytesOut += c.bytesOut
		agg.bytesIn += c.bytesIn
		st.Add(own)
		mu.Unlock()
		putWireCall(c)
	}()

	// The expected divergence inside one bucket is δ/m — usually a couple
	// of entries, usually recent. Start with a small probe batch and ramp
	// toward the configured size, so shallow divergence costs O(δ) on the
	// wire instead of a full batch each way.
	size := min(batch, shardProbeBatch)
	localBound, remoteBound := store.PeelStart, store.PeelStart
	localMore, remoteMore := true, true
	for round := 0; round < p.opts.MaxPeelRounds; round++ {
		var mine []store.Entry
		if localMore {
			mine, localBound, localMore = local.PeelBucket(b, m, localBound, size, now, cfg.Tau1)
		}
		c.req = request{
			Kind:       reqPeelBackShard,
			From:       local.Site(),
			Entries:    mine,
			Hops:       tr.Envelopes(mine),
			Bound:      remoteBound,
			Limit:      size,
			Now:        now,
			Tau1:       cfg.Tau1,
			Shard:      b,
			ShardCount: m,
		}
		size = min(size*4, batch)
		// A certificate woken here rides a carrier, whose checksum is the
		// global one: the bucket's is re-read next round.
		if _, err := p.exchange(c, cfg, local, tr, now, trace.MechPeelBack, &own); err != nil {
			return err
		}
		remoteBound, remoteMore = c.resp.Bound, c.resp.More
		own.ChecksumsCompared++
		if local.ChecksumBucket(b, m, now, cfg.Tau1) == c.resp.Checksum {
			return nil
		}
		if !localMore && !remoteMore {
			// Both walks exhausted: every shippable entry crossed the wire;
			// remaining differences are dormant certificates the protocol
			// must not propagate (§2.2).
			return nil
		}
	}
	return fmt.Errorf("%w: bucket %d of %d", errPeelBudget, b, m)
}

// finishExchange attributes one completed anti-entropy conversation to the
// peer's stats.
func (p *TCPPeer) finishExchange(c *wireCall, st *core.ExchangeStats) {
	p.opts.Stats.noteExchange(st.EntriesSent, st.EntriesReceived, c.bytesOut, c.bytesIn)
}

// applyReceived merges entries the peer shipped into the local store,
// attributing traffic and repairs to the exchange stats. hops are the
// peer's provenance envelopes (nil when it does not trace); each applied
// entry becomes a Repair so the caller can stamp causal hop spans. With
// cfg.ReactivateDormant set, an obsolete entry rejected by a dormant local
// death certificate wakes it (§2.2); the awakened certificates are
// returned for the caller to ship back.
func (p *TCPPeer) applyReceived(cfg core.ResolveConfig, local *store.Store, entries []store.Entry, hops []trace.Hop, mech trace.Mechanism, st *core.ExchangeStats) (awakened []store.Entry) {
	for i, e := range entries {
		st.EntriesReceived++
		switch res := local.Apply(e); {
		case res.Changed():
			senderHop := trace.HopUnknown
			if h := hopAt(hops, i); h.Valid {
				senderHop = h.Count
			}
			st.NoteRepair(core.Repair{
				Site: local.Site(), Parent: p.id,
				Key: e.Key, Stamp: e.Stamp,
				Mech: mech, SenderHop: senderHop,
			})
		case res == store.RejectedByDeath && cfg.ReactivateDormant:
			if re, ok := core.ReactivateIfDormant(local, e.Key, cfg.Tau1); ok {
				st.Reactivated = append(st.Reactivated, e.Key)
				awakened = append(awakened, re)
			}
		}
	}
	return awakened
}
