package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"epidemic/internal/wire"
)

// The wire protocol is a sequence of length-prefixed frames over one
// long-lived TCP connection: a 4-byte big-endian payload length followed
// by the payload, which is one request or response in the binary layout of
// codec.go. The frame boundary lets either side bound a peer's allocation
// before reading a byte of payload.
//
// A connection opens with a 4-byte hello — the magic "EPG" followed by the
// wire version byte — which the server answers with its own version byte.
// There is one version: a hello carrying any other byte is answered and
// the connection closed, and a stream that does not start with the magic
// is closed unanswered. Either way no request is served, and a client that
// reads back a version other than its own fails with ErrFrameGarbage.

// maxWireBytes bounds a single frame; a misbehaving peer cannot make the
// decoder allocate without bound.
const maxWireBytes = wire.MaxFrame

// frameHeaderLen is the fixed frame header size (big-endian uint32 payload
// length).
const frameHeaderLen = 4

// helloMagic opens the connection hello; wireVersion follows it and is the
// server's one-byte answer. The byte is 8: varint-delta timestamps and
// varint site ids (codec.go), requests without a shard-vector section,
// request kind 7 retired, and cluster digests without the two UDP
// counters. Version 7, its predecessor, is refused like any other; no
// other version is spoken.
var helloMagic = [3]byte{'E', 'P', 'G'}

const wireVersion = 8

// Typed wire errors. Callers can errors.Is against these to distinguish
// protocol violations from ordinary network failures.
var (
	// ErrFrameTooLarge reports a frame whose declared payload exceeds the
	// session's limit, in either direction.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrTruncatedFrame reports a frame that ended early: the header (or a
	// length inside the payload) promised more bytes than arrived. It is
	// wire.ErrTruncated, which the store's entries section latches too.
	ErrTruncatedFrame = wire.ErrTruncated
	// ErrFrameGarbage reports a frame whose payload was malformed or not
	// fully consumed by its decoded value — the streams have diverged — or
	// a connection whose hello is missing or names another wire version.
	// It is wire.ErrGarbage.
	ErrFrameGarbage = wire.ErrGarbage
)

// session is one framed stream over a TCP connection, used by both the
// client pool and the server handler. Not safe for concurrent use: callers
// hold a session exclusively for the duration of a request.
type session struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	wbuf    []byte // encode scratch: [4-byte header | payload]
	payload []byte // reusable frame payload backing array

	header [frameHeaderLen]byte
	limit  int // per-frame payload cap

	bytesOut, bytesIn int64 // cumulative traffic on this session
}

// newSession wraps conn. limit <= 0 selects maxWireBytes.
func newSession(conn net.Conn, limit int) *session {
	if limit <= 0 {
		limit = maxWireBytes
	}
	return &session{
		conn:  conn,
		br:    bufio.NewReader(conn),
		bw:    bufio.NewWriter(conn),
		limit: limit,
	}
}

// clientHandshake sends the hello and checks the server's answer. deadline
// bounds the whole exchange; zero leaves the connection unarmed.
func (s *session) clientHandshake(deadline time.Time) error {
	s.setDeadline(deadline)
	defer s.setDeadline(time.Time{})
	hello := [4]byte{helloMagic[0], helloMagic[1], helloMagic[2], wireVersion}
	if _, err := s.bw.Write(hello[:]); err != nil {
		return fmt.Errorf("transport: send hello: %w", err)
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("transport: send hello: %w", err)
	}
	answer, err := s.br.ReadByte()
	if err != nil {
		return fmt.Errorf("transport: read hello answer: %w", err)
	}
	if answer != wireVersion {
		return fmt.Errorf("transport: server speaks wire version %d, want %d: %w", answer, wireVersion, ErrFrameGarbage)
	}
	s.bytesOut += int64(len(hello))
	s.bytesIn++
	return nil
}

// serverHandshake reads the hello off a fresh connection. A hello that
// carries the magic is answered with wireVersion; any other version, and a
// stream without the magic, is refused with ErrFrameGarbage and the caller
// closes the connection. The caller's read deadline bounds the wait.
func (s *session) serverHandshake() error {
	var hello [4]byte
	if _, err := io.ReadFull(s.br, hello[:]); err != nil {
		return err // closed or died before a hello
	}
	if [3]byte(hello[:3]) != helloMagic {
		return fmt.Errorf("transport: connection without hello: %w", ErrFrameGarbage)
	}
	if err := s.bw.WriteByte(wireVersion); err != nil {
		return fmt.Errorf("transport: answer hello: %w", err)
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("transport: answer hello: %w", err)
	}
	if hello[3] != wireVersion {
		return fmt.Errorf("transport: client speaks wire version %d, want %d: %w", hello[3], wireVersion, ErrFrameGarbage)
	}
	s.bytesIn += int64(len(hello))
	s.bytesOut++
	return nil
}

// writeRequest ships req as one frame.
func (s *session) writeRequest(req *request) error {
	s.wbuf = appendRequest(s.frame(), req)
	return s.flushFrame()
}

// writeResponse ships resp as one frame.
func (s *session) writeResponse(resp *response) error {
	s.wbuf = appendResponse(s.frame(), resp)
	return s.flushFrame()
}

// readRequest reads one frame into req. Every field of req is overwritten.
func (s *session) readRequest(req *request) error {
	payload, err := s.readFrame()
	if err != nil {
		return err
	}
	if err := decodeRequest(payload, req); err != nil {
		return fmt.Errorf("transport: decode request: %w", err)
	}
	return nil
}

// readResponse reads one frame into resp. Every field of resp is
// overwritten.
func (s *session) readResponse(resp *response) error {
	payload, err := s.readFrame()
	if err != nil {
		return err
	}
	if err := decodeResponse(payload, resp); err != nil {
		return fmt.Errorf("transport: decode response: %w", err)
	}
	return nil
}

// frame resets the encode scratch to an empty payload preceded by header
// space.
func (s *session) frame() []byte {
	if cap(s.wbuf) < frameHeaderLen {
		s.wbuf = make([]byte, frameHeaderLen, 512)
	}
	return s.wbuf[:frameHeaderLen]
}

// flushFrame stamps the header over s.wbuf and writes the frame in one
// call.
func (s *session) flushFrame() error {
	payload := len(s.wbuf) - frameHeaderLen
	if payload > s.limit {
		return fmt.Errorf("transport: outgoing frame of %d bytes: %w", payload, ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(s.wbuf[:frameHeaderLen], uint32(payload))
	if _, err := s.bw.Write(s.wbuf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("transport: flush frame: %w", err)
	}
	s.bytesOut += int64(len(s.wbuf))
	return nil
}

// readFrame reads one frame and returns its payload, valid until the next
// readFrame on this session.
func (s *session) readFrame() ([]byte, error) {
	if _, err := io.ReadFull(s.br, s.header[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("transport: read frame header: %w", ErrTruncatedFrame)
		}
		return nil, err // clean EOF or network error
	}
	n := int(binary.BigEndian.Uint32(s.header[:]))
	if n > s.limit {
		return nil, fmt.Errorf("transport: incoming frame of %d bytes: %w", n, ErrFrameTooLarge)
	}
	if cap(s.payload) < n {
		s.payload = make([]byte, n)
	}
	payload := s.payload[:n]
	if _, err := io.ReadFull(s.br, payload); err != nil {
		return nil, fmt.Errorf("transport: read frame payload: %w", ErrTruncatedFrame)
	}
	s.bytesIn += int64(frameHeaderLen + n)
	return payload, nil
}

// setDeadline bounds the next request/response pair on the wire; zero
// clears it.
func (s *session) setDeadline(t time.Time) { _ = s.conn.SetDeadline(t) }

// Close closes the underlying connection.
func (s *session) Close() error { return s.conn.Close() }
