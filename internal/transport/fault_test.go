package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// fakeServer runs handler on every accepted connection — a peer that
// misbehaves at the byte level.
func fakeServer(t *testing.T, handler func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handler(conn)
		}
	}()
	return ln.Addr().String()
}

// acceptHello plays the server's side of the hello on a fake server's
// connection: it reads the client's four bytes and answers version, so the
// frames that follow reach a client past its handshake.
func acceptHello(conn net.Conn, version byte) {
	var hello [4]byte
	_, _ = io.ReadFull(conn, hello[:])
	_, _ = conn.Write([]byte{version})
}

func TestClientTruncatedResponseFrame(t *testing.T) {
	// The remote promises a 100-byte payload, ships 5, and dies.
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		acceptHello(conn, wireVersion)
		var header [frameHeaderLen]byte
		binary.BigEndian.PutUint32(header[:], 100)
		_, _ = conn.Write(header[:])
		_, _ = conn.Write([]byte("stub!"))
	})
	peer := NewTCPPeerWith(7, addr, PeerOptions{Timeout: time.Second})
	defer peer.Close()
	_, _, _, err := peer.OfferRumors(nil)
	if !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("err = %v, want ErrTruncatedFrame", err)
	}
}

func TestClientOversizeResponseFrame(t *testing.T) {
	// The remote declares a frame far beyond maxWireBytes; the client must
	// refuse before allocating a byte of payload.
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		acceptHello(conn, wireVersion)
		var header [frameHeaderLen]byte
		binary.BigEndian.PutUint32(header[:], 1<<31)
		_, _ = conn.Write(header[:])
		// Hold the conn open: the error must come from the limit check,
		// not a disconnect.
		time.Sleep(2 * time.Second)
	})
	peer := NewTCPPeerWith(7, addr, PeerOptions{Timeout: time.Second})
	defer peer.Close()
	_, _, _, err := peer.OfferRumors(nil)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestOutgoingFrameRespectsLimit(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	s := newSession(client, 16) // absurdly small per-frame cap
	big := request{Kind: reqMailBatch, Entries: []store.Entry{{Key: "k", Value: store.Value(make([]byte, 1024))}}}
	if err := s.writeRequest(&big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("writeRequest err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTrailingGarbage(t *testing.T) {
	// A frame whose payload holds a full response plus trailing junk means
	// the streams have diverged; readResponse must say so.
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	go func() {
		// Encode one legitimate value, then pad the frame.
		payload := append(appendResponse(nil, &response{Checksum: 7}), 0xde, 0xad, 0xbe)
		var header [frameHeaderLen]byte
		binary.BigEndian.PutUint32(header[:], uint32(len(payload)))
		_, _ = server.Write(header[:])
		_, _ = server.Write(payload)
	}()

	s := newSession(client, 0)
	var resp response
	if err := s.readResponse(&resp); !errors.Is(err, ErrFrameGarbage) {
		t.Errorf("readResponse err = %v, want ErrFrameGarbage", err)
	}
}

func TestClientStalledPeerDeadline(t *testing.T) {
	// The remote accepts the hello, swallows the request, and never
	// answers: the per-request deadline must fire.
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		acceptHello(conn, wireVersion)
		_, _ = io.Copy(io.Discard, conn)
	})
	peer := NewTCPPeerWith(7, addr, PeerOptions{Timeout: 150 * time.Millisecond})
	defer peer.Close()
	start := time.Now()
	_, _, _, err := peer.OfferRumors(nil)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("deadline took %v to fire", d)
	}
}

func TestServerSurvivesTruncatedAndOversizeFrames(t *testing.T) {
	n, err := node.New(node.Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Truncated: promise 100 bytes, send 4, hang up.
	conn := dialHello(t, srv.Addr())
	var header [frameHeaderLen]byte
	binary.BigEndian.PutUint32(header[:], 100)
	_, _ = conn.Write(header[:])
	_, _ = conn.Write([]byte("1234"))
	_ = conn.Close()

	// Oversize: declare a ~4 GiB frame.
	conn = dialHello(t, srv.Addr())
	binary.BigEndian.PutUint32(header[:], 0xffffffff)
	_, _ = conn.Write(header[:])
	// The server must cut this connection itself.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(header[:]); err == nil {
		t.Error("server kept an oversize-frame connection open")
	}
	_ = conn.Close()

	// The server still serves real traffic afterwards.
	peer := NewTCPPeer(1, srv.Addr())
	defer peer.Close()
	if err := mailOne(peer, store.Entry{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1}}); err != nil {
		t.Fatalf("server wedged after fault injection: %v", err)
	}
}

// dialHello opens a raw connection to a server and completes the hello, so
// the bytes a test writes next reach the server's frame reader.
func dialHello(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var answer [1]byte
	if _, err := conn.Write([]byte{'E', 'P', 'G', wireVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, answer[:]); err != nil || answer[0] != wireVersion {
		t.Fatalf("hello answer = %v %v", answer, err)
	}
	return conn
}

func TestPoolRedialsAfterRemoteRestart(t *testing.T) {
	mkNode := func(site timestamp.SiteID) *node.Node {
		n, err := node.New(node.Config{Site: site})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	srv, err := Serve(mkNode(1), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	stats := &WireStats{}
	peer := NewTCPPeerWith(1, addr, PeerOptions{Timeout: time.Second, Stats: stats})
	defer peer.Close()
	if err := mailOne(peer, store.Entry{Key: "a", Value: store.Value("1"), Stamp: timestamp.T{Time: 1}}); err != nil {
		t.Fatal(err)
	}

	// Restart the remote on the same address; the pooled session is now a
	// dead socket the peer must transparently replace.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := Serve(mkNode(1), addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	if err := mailOne(peer, store.Entry{Key: "b", Value: store.Value("2"), Stamp: timestamp.T{Time: 2}}); err != nil {
		t.Fatalf("mail through restarted remote: %v", err)
	}
	if snap := stats.Snapshot(); snap.Redials == 0 {
		t.Errorf("expected a redial, stats = %+v", snap)
	}
}

func TestPoolStressConcurrentExchanges(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	remote, err := node.New(node.Config{Site: 2, Clock: src.ClockAt(2)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	local := store.New(1, src.ClockAt(1))
	stats := &WireStats{}
	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{PoolSize: 2, Stats: stats})
	cfg := core.ResolveConfig{Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1 << 40, Tau1: 1 << 40}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var err error
				switch i % 3 {
				case 0:
					err = mailOne(peer, store.Entry{
						Key:   fmt.Sprintf("g%d-%d", g, i),
						Value: store.Value("v"),
						Stamp: timestamp.T{Time: int64(g*1000 + i), Site: 1},
					})
				case 1:
					_, _, _, err = peer.OfferRumors(nil)
				default:
					_, err = peer.AntiEntropy(cfg, local, nil)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := stats.Snapshot()
	if snap.Dials == 0 || snap.Reuses == 0 {
		t.Errorf("expected both dials and reuses under load: %+v", snap)
	}
	if snap.OpenConns != int64(peer.pool.openIdle()) {
		t.Errorf("open conns %d != idle pool size %d", snap.OpenConns, peer.pool.openIdle())
	}
	if err := peer.Close(); err != nil {
		t.Fatal(err)
	}
	if snap := stats.Snapshot(); snap.OpenConns != 0 {
		t.Errorf("open conns after Close = %d, want 0", snap.OpenConns)
	}
}
