package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
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
// core's shard-vector conversation (core.Reconcile, core.Respond): the
// transport carries its four round trips as the reqShardVector,
// reqPeelBackShard, reqChecksum and reqFullSync frames and adds the
// cluster-digest piggyback to the opening vector exchange.
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
	// Kind 11 opened every conversation with the ids of the recent-update
	// window. The bucket vector opens it now, so it is retired and answered
	// "unknown request kind".
)

// kindName names a request kind for logs and metric labels.
func (k reqKind) kindName() string {
	switch k {
	case reqPushRumors:
		return "push-rumors"
	case reqRumorOffer:
		return "rumor-offer"
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

// request and response carry, on the anti-entropy kinds, the fields of
// core.LadderRequest and core.LadderReply of the same names; unused fields
// cost a zero byte each.
type request struct {
	Kind    reqKind
	From    timestamp.SiteID
	Entries []store.Entry
	Now     int64
	Tau1    int64 // death-certificate dormancy threshold
	Bound   timestamp.T
	Limit   int
	// Hops carries one provenance envelope per entry in Entries when the
	// sender traces. nil — the common untraced case — costs one zero byte.
	Hops []trace.Hop
	// Digests piggybacks, on the two conversation openers reqShardVector
	// and reqRumorOffer (the observatory's epidemic channel), the sender's
	// cluster digests newer than the receiver is known to hold. nil when
	// the receiver holds them all, and when the observatory is off: one
	// zero byte on the wire.
	Digests    []cluster.Digest
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
	Bound    timestamp.T
	More     bool
	// Hops mirrors request.Hops for the response's Entries.
	Hops []trace.Hop
	Err  string
	// Digests mirrors request.Digests: the responder's digests newer than
	// the caller is known to hold, piggybacked back so digest exchange is
	// bidirectional like the data exchange.
	Digests    []cluster.Digest
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
// session idles out, or the stream breaks. One request/response pair and
// the bucket vector's backing array are kept alive across the loop so a
// steady-state session serves without allocating.
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
	var vec []uint64
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
		resp = s.dispatch(req, vec)
		if resp.Vector != nil {
			vec = resp.Vector
		}
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

// dispatch serves one request. vec is scratch the reqShardVector reply
// may build its vector in.
func (s *Server) dispatch(req request, vec []uint64) response {
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
		return response{Needed: want, Entries: entries, Hops: hops, Digests: s.swapDigests(req.From, req.Digests)}
	case reqShardVector:
		return s.answer(core.RungVector, req, vec)
	case reqPeelBackShard:
		return s.answer(core.RungPeel, req, vec)
	case reqChecksum:
		return s.answer(core.RungCarry, req, vec)
	case reqFullSync:
		return s.answer(core.RungSwap, req, vec)
	default:
		return response{Err: fmt.Sprintf("unknown request kind %d", req.Kind)}
	}
}

// answer serves one anti-entropy round trip through core.Respond, the
// node's ApplyRepairs applying what the request ships; the opening vector
// exchange also swaps cluster digests.
func (s *Server) answer(rung core.Rung, req request, vec []uint64) response {
	rep, err := core.Respond(s.node.Store(), core.LadderRequest{
		Rung: rung, From: req.From, Entries: req.Entries, Hops: req.Hops, Now: req.Now, Tau1: req.Tau1,
		Shard: req.Shard, ShardCount: req.ShardCount, Bound: req.Bound, Limit: req.Limit,
	}, s.node.ApplyRepairs, s.node.Tracer(), vec)
	if err != nil {
		return response{Err: err.Error()}
	}
	resp := response{
		Needed: rep.Needed, Entries: rep.Entries, Hops: rep.Hops, Checksum: rep.Checksum, Now: rep.Now,
		Bound: rep.Bound, More: rep.More, ShardCount: rep.ShardCount, Vector: rep.Vector,
	}
	if rung == core.RungVector {
		resp.Digests = s.swapDigests(req.From, req.Digests)
	}
	return resp
}

// swapDigests merges the digests the caller, site from, piggybacked into
// this node's directory and returns the ones the caller still lacks,
// marked delivered as the reply is built: a reply lost on the way costs
// the caller at most one digest refresh of staleness, after which the
// newer version goes out. All nil-safe: with the observatory off both
// directions are nil and cost nothing.
func (s *Server) swapDigests(from timestamp.SiteID, in []cluster.Digest) []cluster.Digest {
	dir := s.node.Digests()
	dir.Merge(int32(from), in)
	out := dir.ShareTo(int32(from))
	dir.Delivered(int32(from), out)
	return out
}

// PeerOptions tunes a TCPPeer's pooled wire protocol. The zero value
// selects the defaults noted per field. The repair ladder has no knob: it
// is core's (core.Reconcile), and its batch size comes from
// core.ResolveConfig.
type PeerOptions struct {
	// Timeout is the dial timeout and the per-request deadline (default
	// 10s). Unlike a per-connection deadline, it re-arms for every
	// request, so long-lived pooled sessions never time out while healthy
	// traffic flows.
	Timeout time.Duration
	// PoolSize bounds the idle persistent sessions retained per peer
	// (default 2); requests beyond it dial and close their own.
	PoolSize int
	// Codec names the wire format and accepts only "" or "binary", the one
	// format there is. Any other value makes every request fail with the
	// error ServeWith would return for it.
	Codec string
	// UDP is ignored: rumor pushes ride pooled TCP like every other
	// request. It is kept only so code written against the removed UDP
	// fast path still compiles.
	UDP bool
	// Stats, when set, receives pool and wire-traffic accounting; share
	// one WireStats across all peers of a process.
	Stats *WireStats
	// Digests, when set, is the calling node's cluster-digest directory:
	// anti-entropy and rumor-offer conversations piggyback its
	// ShareTo(peer) — the digests the peer lacks — mark them delivered once
	// the round trip succeeds, and merge what the peer sends back. Its Self
	// fills a rumor offer's From. Nil disables the piggyback.
	Digests *cluster.Directory
}

// Defaults for PeerOptions zero values.
const (
	defaultPeerTimeout = 10 * time.Second
	defaultPoolSize    = 2
)

func (o PeerOptions) withDefaults() PeerOptions {
	if o.Timeout <= 0 {
		o.Timeout = defaultPeerTimeout
	}
	if o.PoolSize <= 0 {
		o.PoolSize = defaultPoolSize
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

// wireCall bundles one request/response pair and the bytes it moved,
// pooled so steady-state calls allocate nothing. Bound to a peer, it is
// the far side of one anti-entropy conversation (core.Partner).
type wireCall struct {
	req               request
	resp              response
	bytesOut, bytesIn int64
	peer              *TCPPeer
}

var wireCallPool = sync.Pool{New: func() any { return new(wireCall) }}

func getWireCall() *wireCall { return wireCallPool.Get().(*wireCall) }

// putWireCall clears the call before pooling it so no request payload (or
// key/value memory) stays pinned. Response slices handed out to callers
// are safe: every decode allocates fresh ones, except the vector's, which
// is kept for the next decode and never leaves the transport.
func putWireCall(c *wireCall) {
	c.req = request{}
	c.resp = response{Vector: c.resp.Vector[:0]}
	c.bytesOut, c.bytesIn = 0, 0
	c.peer = nil
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
// carries the digests the peer lacks and merges the peer's back, and its
// From names the caller's site so the server can answer in kind.
func (p *TCPPeer) OfferRumors(ids []store.Entry) ([]bool, []store.Entry, []trace.Hop, error) {
	c := getWireCall()
	defer putWireCall(c)
	dir := p.opts.Digests
	c.req = request{Kind: reqRumorOffer, From: timestamp.SiteID(dir.Self()), Entries: ids}
	if err := p.swapDigests(c); err != nil {
		return nil, nil, nil, err
	}
	return c.resp.Needed, c.resp.Entries, c.resp.Hops, nil
}

// swapDigests runs c's request as a conversation opener: it carries the
// digests the peer lacks, marks them delivered only once the round trip
// has succeeded, and merges the reply's digests as heard from the peer.
func (p *TCPPeer) swapDigests(c *wireCall) error {
	dir, peer := p.opts.Digests, int32(p.id)
	sent := dir.ShareTo(peer)
	c.req.Digests = sent
	if err := p.call(c); err != nil {
		return err
	}
	dir.Merge(peer, c.resp.Digests)
	dir.Delivered(peer, sent)
	return nil
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

// AntiEntropy implements node.Peer: core's shard-vector conversation
// (core.Reconcile), each of its round trips one pooled request on one
// session at a time. When the cluster observatory is on, the opening vector
// request carries the digests the peer lacks and merges the peer's back.
//
// Of cfg only Tau1, BatchSize and ReactivateDormant are read. The
// conversation is the one wire conversation, always push-pull:
// cfg.Strategy, cfg.Mode and the recent-update window cfg.Tau are ignored.
func (p *TCPPeer) AntiEntropy(cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer) (core.ExchangeStats, error) {
	c := getWireCall()
	defer putWireCall(c)
	c.peer = p
	st, err := core.Reconcile(cfg, local, tr, c)
	if err != nil {
		return st, err
	}
	if st.ShardsRepaired > 0 {
		p.opts.Stats.noteShardVec(st.ShardsRepaired)
	}
	p.opts.Stats.noteExchange(st.EntriesSent, st.EntriesReceived, c.bytesOut, c.bytesIn)
	return st, nil
}

// rungKinds frames each round trip of the anti-entropy conversation.
var rungKinds = [...]reqKind{
	core.RungVector: reqShardVector,
	core.RungPeel:   reqPeelBackShard,
	core.RungCarry:  reqChecksum,
	core.RungSwap:   reqFullSync,
}

// ID implements core.Partner.
func (c *wireCall) ID() timestamp.SiteID { return c.peer.id }

// Ask implements core.Partner: one pooled round trip, its framed bytes
// summed on c. The reply's vector is c's kept buffer, overwritten by the
// next Ask.
func (c *wireCall) Ask(q core.LadderRequest) (core.LadderReply, error) {
	p := c.peer
	c.req = request{
		Kind: rungKinds[q.Rung], From: q.From, Entries: q.Entries, Hops: q.Hops, Now: q.Now, Tau1: q.Tau1,
		Bound: q.Bound, Limit: q.Limit, Shard: q.Shard, ShardCount: q.ShardCount,
	}
	var err error
	if q.Rung == core.RungVector {
		err = p.swapDigests(c)
	} else {
		err = p.call(c)
	}
	if err != nil {
		return core.LadderReply{}, err
	}
	r := &c.resp
	return core.LadderReply{
		Needed: r.Needed, Entries: r.Entries, Hops: r.Hops, Checksum: r.Checksum, Now: r.Now,
		Bound: r.Bound, More: r.More, ShardCount: r.ShardCount, Vector: r.Vector,
	}, nil
}
