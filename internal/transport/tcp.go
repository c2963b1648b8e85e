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
// ships O(δ) entries for δ differing keys. A full database swap survives
// only as a capped last resort.
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
	reqFullSync      // full live-database swap (capped last resort)
	reqChecksum      // live checksum probe (§1.5 combined scheme); applies any entries first
	reqPeelBack      // one reverse-timestamp batch + checksum re-check (§1.3)
	reqShardVector   // per-shard live-checksum vector swap
	reqPeelBackShard // one shard-scoped peel batch + that shard's checksum
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
	case reqPeelBack:
		return "peel-back"
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
	// (reqPeelBack): the server returns up to Limit entries strictly older
	// than Bound, newest first. The server is stateless across rounds; the
	// caller echoes back the Bound each response hands it.
	Bound timestamp.T
	Limit int
	// Hops carries one provenance envelope per entry in Entries when the
	// sender traces. nil — the common untraced case — costs one zero byte.
	Hops []trace.Hop
	// Digests piggybacks the sender's cluster-digest view on reqSyncOffer and
	// reqRumorOffer conversations (the observatory's epidemic channel).
	// nil when the observatory is off: one zero byte on the wire.
	Digests []cluster.Digest
	// Shard addresses one lock stripe for reqPeelBackShard; ShardCount is
	// the sender's store shard count (vector compares and shard walks are
	// only meaningful between stores with identical key→shard maps).
	// Vector carries the sender's per-shard live checksums on
	// reqShardVector. Unused, the three cost three zero bytes.
	Shard      int
	ShardCount int
	Vector     []uint64
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
	InSync   bool
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
	// ShardCount and Vector answer reqShardVector with the responder's
	// shard count and per-shard live checksums. For reqPeelBackShard the
	// existing Checksum field carries the requested shard's live checksum
	// instead of the global one.
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

// ServerOptions tunes a Server. The zero value binds the UDP fast path.
type ServerOptions struct {
	// Codec names the wire format and accepts only "" or "binary", the one
	// format there is; ServeWith refuses any other value.
	Codec string
	// DisableUDP skips binding the UDP fast-path socket; rumor pushes from
	// UDP-enabled peers then time out once and fall back to pooled TCP.
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
// sessions, plus a UDP socket on the same port for single-datagram rumor
// pushes.
type Server struct {
	node *node.Node
	ln   net.Listener
	udp  *net.UDPConn // nil when the fast path is disabled
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
	if !opts.DisableUDP {
		// Same port as TCP so one advertised address serves both paths. A
		// bind failure (port taken by another process's UDP socket) is not
		// fatal: peers fall back to TCP.
		if uaddr, err := net.ResolveUDPAddr("udp", ln.Addr().String()); err == nil {
			if uc, err := net.ListenUDP("udp", uaddr); err == nil {
				s.udp = uc
				s.wg.Add(1)
				go s.serveUDP(uc)
			}
		}
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
	if s.udp != nil {
		_ = s.udp.Close()
	}
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
		sum := st.ChecksumLive(now, req.Tau1)
		return response{
			Needed:   want,
			Entries:  recent,
			Hops:     hops,
			Checksum: sum,
			Now:      now,
			InSync:   sum == req.Checksum,
			Digests:  s.swapDigests(req.Digests),
		}
	case reqPeelBack:
		st := s.node.Store()
		needed, awakened := s.node.ApplyRepairs(req.Entries, req.Hops, req.From, trace.MechPeelBack, req.Tau1)
		now := maxInt64(st.Now(), req.Now)
		batch, next, more := st.PeelBatch(req.Bound, clampPeelLimit(req.Limit), now, req.Tau1)
		batch = withAwakened(batch, awakened)
		return response{
			Needed:   needed,
			Entries:  batch,
			Hops:     s.node.Tracer().Envelopes(batch),
			Checksum: st.ChecksumLive(now, req.Tau1),
			Now:      now,
			Bound:    next,
			More:     more,
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
			InSync:   true,
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
		now := maxInt64(st.Now(), req.Now)
		return response{
			Checksum:   st.ChecksumLive(now, req.Tau1),
			Now:        now,
			ShardCount: st.ShardCount(),
			Vector:     st.ChecksumVector(now, req.Tau1),
		}
	case reqPeelBackShard:
		st := s.node.Store()
		if req.ShardCount != st.ShardCount() || req.Shard < 0 || req.Shard >= st.ShardCount() {
			return response{Err: fmt.Sprintf("shard %d/%d incomparable with local %d shards",
				req.Shard, req.ShardCount, st.ShardCount())}
		}
		needed, awakened := s.node.ApplyRepairs(req.Entries, req.Hops, req.From, trace.MechPeelBack, req.Tau1)
		now := maxInt64(st.Now(), req.Now)
		batch, next, more := st.PeelBatchShard(req.Shard, req.Bound, clampPeelLimit(req.Limit), now, req.Tau1)
		batch = withAwakened(batch, awakened)
		return response{
			Needed:   needed,
			Entries:  batch,
			Hops:     s.node.Tracer().Envelopes(batch),
			Checksum: st.ChecksumShard(req.Shard, now, req.Tau1),
			Now:      now,
			Bound:    next,
			More:     more,
		}
	default:
		return response{Err: fmt.Sprintf("unknown request kind %d", req.Kind)}
	}
}

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
	// UDP enables the single-datagram fast path for rumor pushes (udp.go).
	// Pushes that exceed the datagram budget, or that get no response
	// within UDPTimeout after UDPRetries resends, fall back to pooled TCP.
	UDP bool
	// UDPTimeout bounds one datagram attempt (default 300ms).
	UDPTimeout time.Duration
	// UDPRetries is the number of resends after the first attempt before
	// falling back (default 2).
	UDPRetries int
	// UDPBudget caps the datagram size for the fast path (default 1200
	// bytes, a conservative single-MTU figure).
	UDPBudget int
	// ShardRepairWorkers bounds the diverged shards repaired concurrently
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
	if o.UDPTimeout <= 0 {
		o.UDPTimeout = defaultUDPTimeout
	}
	if o.UDPRetries <= 0 {
		o.UDPRetries = defaultUDPRetries
	}
	if o.UDPBudget <= 0 {
		o.UDPBudget = defaultUDPBudget
	}
	return o
}

// TCPPeer is a node.Peer implemented over the pooled wire protocol above,
// with an optional UDP fast path for rumor pushes. All methods are safe
// for concurrent use; concurrent requests each check a session out of the
// pool (dialing extras as needed).
type TCPPeer struct {
	id   timestamp.SiteID
	addr string
	opts PeerOptions
	pool *pool
	err  error // a bad Codec option, returned by every request

	udpOnce sync.Once
	udp     *udpClient // nil until first fast-path push, or on dial failure
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

// Close releases the peer's pooled connections and the fast-path socket.
// The peer remains usable; subsequent requests dial fresh TCP sessions
// (the UDP socket is not re-dialed).
func (p *TCPPeer) Close() error {
	p.pool.close()
	p.udpOnce.Do(func() {}) // no fast path after Close
	if p.udp != nil {
		p.udp.close()
	}
	return nil
}

// fastPath returns the peer's UDP client, dialing it on first use; nil
// when the fast path is disabled, the peer is misconfigured, or its socket
// cannot be set up.
func (p *TCPPeer) fastPath() *udpClient {
	if !p.opts.UDP || p.err != nil {
		return nil
	}
	p.udpOnce.Do(func() {
		c, err := dialUDP(p.addr, p.opts.UDPBudget, p.opts.UDPTimeout, p.opts.UDPRetries, p.opts.Stats)
		if err == nil {
			p.udp = c
		}
	})
	return p.udp
}

// wireCall bundles one request/response pair plus shard-vector scratch,
// pooled so steady-state calls allocate nothing.
type wireCall struct {
	req               request
	resp              response
	bytesOut, bytesIn int64
	vecBuf            []uint64 // shard-vector scratch (reqShardVector)
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

// errRemote marks an error the peer's dispatcher reported (as opposed to a
// transport failure); shard-vector conversations downgrade on it instead of
// failing the whole exchange, since it usually means the server's shard
// topology changed mid-conversation.
var errRemote = errors.New("transport: remote error")

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
		return fmt.Errorf("%w: %s", errRemote, c.resp.Err)
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

// PushRumors implements node.Peer. Small pushes try the UDP fast path
// first (when enabled), falling back to pooled TCP on oversize, loss, or
// timeout.
func (p *TCPPeer) PushRumors(entries []store.Entry, hops []trace.Hop) ([]bool, error) {
	c := getWireCall()
	defer putWireCall(c)
	c.req = request{Kind: reqPushRumors, Entries: entries, Hops: hops}
	if u := p.fastPath(); u != nil {
		if u.roundTrip(&c.req, &c.resp) {
			if c.resp.Err != "" {
				return nil, fmt.Errorf("%w: %s", errRemote, c.resp.Err)
			}
			return c.resp.Needed, nil
		}
		p.opts.Stats.noteUDPFallback()
	}
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
// entry. On mismatch the two sides peel back through their databases in
// reverse-timestamp batches, re-comparing checksums after every batch and
// stopping as soon as they agree — O(δ) entries shipped for δ differing
// keys. Only when MaxPeelRounds batches have not reconciled the replicas
// does the conversation degrade to the full swap. Throughout, with
// cfg.ReactivateDormant set, an obsolete entry that meets a dormant death
// certificate on either side wakes it (§2.2), and the awakened certificate
// crosses to the other side before the next compare.
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

	// Checksums disagree. First narrow the divergence to individual shards
	// with one vector round trip and repair only those, in parallel; any
	// wrinkle (mismatched shard counts, mid-conversation topology change)
	// downgrades to the global walk.
	//
	// The repair workers capture the stats pointer, which would force st
	// itself onto the heap for every conversation — including the
	// allocation-free in-sync fast path above. Hand them a copy that only
	// escapes on this (already allocating) mismatch path.
	sv := st
	done, err := p.shardRepair(cfg, local, tr, now, c, &sv)
	if err != nil {
		return sv, err
	}
	if done {
		p.finishExchange(c, &sv)
		return sv, nil
	}
	st = sv // keep whatever the abandoned narrow attempt repaired
	p.opts.Stats.noteShardVecDowngrade()

	// Peel back in reverse-timestamp batches until the checksums agree,
	// both sides walking their own index (§1.3).
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = core.DefaultPeelBatch
	}
	localBound, remoteBound := store.PeelStart, store.PeelStart
	localMore, remoteMore := true, true
	for round := 0; round < p.opts.MaxPeelRounds; round++ {
		var mine []store.Entry
		if localMore {
			mine, localBound, localMore = local.PeelBatch(localBound, batch, now, cfg.Tau1)
		}
		c.req = request{
			Kind:    reqPeelBack,
			From:    local.Site(),
			Entries: mine,
			Hops:    tr.Envelopes(mine),
			Bound:   remoteBound,
			Limit:   batch,
			Now:     now,
			Tau1:    cfg.Tau1,
		}
		sum, err := p.exchange(c, cfg, local, tr, now, trace.MechPeelBack, &st)
		if err != nil {
			return st, err
		}
		remoteBound, remoteMore = c.resp.Bound, c.resp.More
		now = maxInt64(now, c.resp.Now)
		st.ChecksumsCompared++
		if local.ChecksumLive(now, cfg.Tau1) == sum {
			p.finishExchange(c, &st)
			return st, nil
		}
		if !localMore && !remoteMore {
			// Both walks exhausted: every shippable entry crossed the
			// wire; remaining differences are dormant certificates the
			// protocol must not propagate (§2.2).
			p.finishExchange(c, &st)
			return st, nil
		}
	}

	// Capped last resort: the peel budget is spent and the replicas still
	// disagree — swap full live databases in one round trip.
	st.FullCompare = true
	full := local.LiveSnapshot(now, cfg.Tau1)
	c.req = request{
		Kind: reqFullSync, From: local.Site(), Entries: full,
		Hops: tr.Envelopes(full), Now: now, Tau1: cfg.Tau1,
	}
	if _, err := p.exchange(c, cfg, local, tr, now, trace.MechAntiEntropy, &st); err != nil {
		return st, err
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

// shardRepair is the narrow path of an anti-entropy conversation:
// one round trip swaps per-shard live-checksum vectors, then only the
// diverged shards are peeled — each confined to one lock stripe on both
// sides — by a bounded pool of workers over concurrent pooled sessions. It
// reports done=true when the exchange converged (or provably cannot make
// further live progress); done=false with a nil error means the caller
// should fall back to the global peel walk. agg accumulates the byte
// counters of every session the repair used.
func (p *TCPPeer) shardRepair(cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer, now int64, agg *wireCall, st *core.ExchangeStats) (bool, error) {
	v := getWireCall()
	defer func() {
		agg.bytesOut += v.bytesOut
		agg.bytesIn += v.bytesIn
		putWireCall(v)
	}()

	v.req = request{
		Kind: reqShardVector,
		From: local.Site(),
		Now:  now,
		Tau1: cfg.Tau1,
	}
	v.req.Vector = local.AppendChecksumVector(v.vecBuf[:0], now, cfg.Tau1)
	v.vecBuf = v.req.Vector[:0]
	if err := p.call(v); err != nil {
		return false, err
	}
	st.ChecksumsCompared++
	now = maxInt64(now, v.resp.Now)
	if v.resp.ShardCount != local.ShardCount() || len(v.resp.Vector) != len(v.req.Vector) {
		return false, nil // incomparable key→shard maps
	}
	var diverged []int
	for i, sum := range v.req.Vector {
		if sum != v.resp.Vector[i] {
			diverged = append(diverged, i)
		}
	}

	batch := cfg.BatchSize
	if batch <= 0 {
		batch = core.DefaultPeelBatch
	}
	if len(diverged) > 0 {
		workers := p.opts.ShardRepairWorkers
		if workers > len(diverged) {
			workers = len(diverged)
		}
		var (
			next     atomic.Int64
			degraded atomic.Bool
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
					if i >= len(diverged) || degraded.Load() || func() bool { mu.Lock(); defer mu.Unlock(); return firstErr != nil }() {
						return
					}
					err := p.repairShard(cfg, local, tr, diverged[i], now, batch, &mu, agg, st)
					switch {
					case err == nil:
					case errors.Is(err, errRemote) || errors.Is(err, errShardDowngrade):
						degraded.Store(true)
					default:
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return false, firstErr
		}
		if degraded.Load() {
			return false, nil
		}
		st.ShardsRepaired += len(diverged)
	}

	// Terminal recompare: the global live checksums must now agree.
	// Anything still skewed (a dormancy transition raced the repair, a
	// concurrent writer) is the global walk's problem.
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

// errShardDowngrade signals that one shard's repair could not finish within
// the peel budget; the conversation falls back to the global walk.
var errShardDowngrade = errors.New("transport: shard-vector downgrade")

// shardProbeBatch is the opening batch size of a shard repair (it ramps ×4
// per round up to the configured BatchSize).
const shardProbeBatch = 8

// repairShard reconciles one diverged shard: both sides peel that shard's
// slice of the timestamp index in reverse order, re-comparing the shard
// checksum after every batch. Runs on a worker goroutine: it books into
// its own stats and folds them and its byte counts into st and agg, the
// state it shares, under mu when it returns.
func (p *TCPPeer) repairShard(cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer, shard int, now int64, batch int, mu *sync.Mutex, agg *wireCall, st *core.ExchangeStats) error {
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

	// The expected divergence inside one shard is δ/S — usually a couple
	// of entries, usually recent. Start with a small probe batch and ramp
	// toward the configured size, so shallow per-shard divergence costs
	// O(δ) on the wire instead of a full batch each way.
	b := batch
	if b > shardProbeBatch {
		b = shardProbeBatch
	}
	localBound, remoteBound := store.PeelStart, store.PeelStart
	localMore, remoteMore := true, true
	for round := 0; round < p.opts.MaxPeelRounds; round++ {
		var mine []store.Entry
		if localMore {
			mine, localBound, localMore = local.PeelBatchShard(shard, localBound, b, now, cfg.Tau1)
		}
		c.req = request{
			Kind:       reqPeelBackShard,
			From:       local.Site(),
			Entries:    mine,
			Hops:       tr.Envelopes(mine),
			Bound:      remoteBound,
			Limit:      b,
			Now:        now,
			Tau1:       cfg.Tau1,
			Shard:      shard,
			ShardCount: local.ShardCount(),
		}
		if b *= 4; b > batch {
			b = batch
		}
		// A certificate woken here rides a carrier, whose checksum is the
		// global one: the shard's is re-read next round.
		if _, err := p.exchange(c, cfg, local, tr, now, trace.MechPeelBack, &own); err != nil {
			return err
		}
		remoteBound, remoteMore = c.resp.Bound, c.resp.More
		own.ChecksumsCompared++
		if local.ChecksumShard(shard, now, cfg.Tau1) == c.resp.Checksum {
			return nil
		}
		if !localMore && !remoteMore {
			// Shard walks exhausted; residual skew is dormant-certificate
			// divergence the terminal recompare will adjudicate.
			return nil
		}
	}
	return fmt.Errorf("%w: shard %d budget exhausted", errShardDowngrade, shard)
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
