package transport

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"epidemic/internal/node"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// offerRequests and offerResponses are the two frames of a rumor offer:
// value-less, retention-less ids out; want-bits plus the responder's
// uncovered hot rumors back.
func offerRequests() []request {
	return []request{
		{Kind: reqRumorOffer}, // the empty offer: a plain pull
		{Kind: reqRumorOffer, From: 4, Entries: []store.Entry{
			{Key: "k/000017", Stamp: timestamp.T{Time: 1 << 40, Site: 2, Seq: 9}, Activation: timestamp.T{Time: 1 << 40, Site: 2, Seq: 9}},
			{Key: "", Stamp: timestamp.T{Time: 3, Site: 1}, Activation: timestamp.T{Time: 8, Site: 1}}, // reactivated certificate
		}},
	}
}

func offerResponses() []response {
	return []response{
		{Needed: []bool{false, false}},
		{Needed: []bool{false, true}, Entries: []store.Entry{
			{Key: "k/000021", Value: store.Value("v"), Stamp: timestamp.T{Time: 7, Site: 3}, Activation: timestamp.T{Time: 7, Site: 3}},
		}},
	}
}

// TestOfferIDByteBudget pins what an id costs on the wire against a full
// entry, at the benchmark stream's shape: 8-byte keys, 64-byte values and
// wall-clock-nanosecond stamps from one site. The first id of a section
// carries its stamp's whole time, key + 17 B; each later id, 1 ms older
// than the one before, carries a 3-byte delta, key + 11 B. Either way the
// activation, equal to the stamp, costs 3 B.
func TestOfferIDByteBudget(t *testing.T) {
	t0 := time.Date(2026, 10, 15, 12, 0, 0, 0, time.UTC).UnixNano()
	ids := make([]store.Entry, 4)
	for i := range ids {
		st := timestamp.T{Time: t0 - int64(i)*int64(time.Millisecond), Site: 3}
		ids[i] = store.Entry{Key: fmt.Sprintf("k/%06d", 17+i), Stamp: st, Activation: st}
	}
	size := func(es []store.Entry) int { return len(appendEntries(nil, es)) - 1 } // less the count byte
	if got := size(ids[:1]); got != len(ids[0].Key)+17 {
		t.Errorf("first id of an %d-byte key costs %d bytes, want key + 17", len(ids[0].Key), got)
	}
	for n := 2; n <= len(ids); n++ {
		if got := size(ids[:n]) - size(ids[:n-1]); got != len(ids[n-1].Key)+11 {
			t.Errorf("id %d, 1 ms after the one before, costs %d bytes, want key + 11", n-1, got)
		}
	}
	full := ids[0]
	full.Value = make(store.Value, 64)
	if got := size([]store.Entry{full}) - size(ids[:1]); got != 64 {
		t.Errorf("a full entry costs %d bytes more than its id, want its 64-byte value", got)
	}
}

// TestOfferForgedIDCount: an offer whose id count promises more ids than
// the frame could hold at the minimum id size is refused before the
// decoder allocates for them.
func TestOfferForgedIDCount(t *testing.T) {
	req := offerRequests()[1]
	good := appendRequest(nil, &req)
	// The same offer with no ids encodes the same prefix; the first byte
	// that differs is the id count.
	empty := req
	empty.Entries = nil
	bare := appendRequest(nil, &empty)
	prefix := 0
	for prefix < len(bare) && bare[prefix] == good[prefix] {
		prefix++
	}
	if prefix == len(bare) || bare[prefix] != 0 || good[prefix] != 2 {
		t.Fatalf("no id count found: byte %d of the offer, want 0 without ids and 2 with", prefix)
	}
	rest := good[prefix+1:]
	// One more id than it carries, and one more than the rest of the frame
	// could hold at entryMinWire bytes each.
	for _, claim := range []uint64{3, uint64(len(rest)/entryMinWire) + 1} {
		forged := append(appendUvarint(good[:prefix:prefix], claim), rest...)
		var got request
		if err := decodeRequest(forged, &got); !errors.Is(err, ErrTruncatedFrame) {
			t.Errorf("offer claiming %d ids: err = %v, want ErrTruncatedFrame", claim, err)
		}
	}
}

// TestOfferParityLocalAndTCP: for the same pair of nodes, an offer through
// LocalPeer and through TCPPeer returns identical want-bits and entries.
// The cases keep the codec pairings older builds offered; a retired name is
// now refused on the side that names it.
func TestOfferParityLocalAndTCP(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	mk := func(site timestamp.SiteID) *node.Node {
		n, err := node.New(node.Config{Site: site, Clock: src.ClockAt(site), Tau1: 1 << 40, Tau2: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := mk(1), mk(2)
	shared := a.Update("shared", store.Value("s"))
	b.HandleMailBatch(node.MailBatch{Entries: []store.Entry{shared}})
	a.Update("only-a", store.Value("a"))
	b.Update("only-b", store.Value("b"))
	a.Update("raced", store.Value("old"))
	src.Advance(1)
	b.Update("raced", store.Value("new"))
	b.Delete("gone")
	cert := a.Delete("cert")
	b.HandleMailBatch(node.MailBatch{Entries: []store.Entry{cert}})
	src.Advance(5)
	if _, ok := a.Store().Reactivate("cert"); !ok { // same stamp, newer activation
		t.Fatal("no certificate to reactivate")
	}

	var ids []store.Entry
	for _, e := range a.HotEntries() {
		id, _ := a.Store().ID(e.Key)
		ids = append(ids, id)
	}
	if len(ids) != 4 {
		t.Fatalf("a offers %d ids, want shared, only-a, raced, cert", len(ids))
	}
	wantBits, wantEntries, _, err := node.NewLocalPeer(b, 1).OfferRumors(ids)
	if err != nil {
		t.Fatal(err)
	}
	bits := map[string]bool{}
	for i, id := range ids {
		bits[id.Key] = wantBits[i]
	}
	if !reflect.DeepEqual(bits, map[string]bool{"shared": false, "only-a": true, "raced": false, "cert": true}) {
		t.Fatalf("local want-bits = %v", bits)
	}
	if len(wantEntries) != 3 { // only-b, raced (newer at b), gone; shared and cert are covered
		t.Fatalf("local offer returned %d entries: %+v", len(wantEntries), wantEntries)
	}

	for _, tc := range []struct{ server, client string }{
		{"binary", "binary"}, {"binary", "binary-v4"}, {"binary", "gob"}, {"binary", "legacy"}, {"gob", "binary"},
	} {
		t.Run(tc.client+"-to-"+tc.server, func(t *testing.T) {
			if expectCodecRefused(t, b, tc.server, tc.client) {
				return
			}
			srv, err := ServeWith(b, "127.0.0.1:0", ServerOptions{Codec: tc.server})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{Codec: tc.client, Timeout: 2 * time.Second})
			defer peer.Close()
			gotBits, gotEntries, _, err := peer.OfferRumors(ids)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotBits, wantBits) {
				t.Errorf("want-bits over the wire = %v, in process = %v", gotBits, wantBits)
			}
			got := response{Entries: gotEntries}
			normalizeResp(&got) // empty retention lists decode as empty, not nil
			if !reflect.DeepEqual(got.Entries, wantEntries) {
				t.Errorf("entries over the wire:\n got %+v\nwant %+v", got.Entries, wantEntries)
			}
		})
	}
}

// TestSingleEntryDrainKeepsItsTelemetry: one Update fanned out to four
// peers is four 1-entry outbox drains. Each must cross as a mail-batch
// frame, fresh pool or not, so the receivers' batch counter and queue-age
// high-water mark describe all mail and not only the multi-entry drains.
func TestSingleEntryDrainKeepsItsTelemetry(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	a, _ := outboxNode(t, 1, src)
	ws := &WireStats{}
	var receivers []*node.Node
	var peers []node.Peer
	for site := timestamp.SiteID(2); site <= 5; site++ {
		n, srv := outboxNode(t, site, src)
		receivers = append(receivers, n)
		peers = append(peers, NewTCPPeerWith(site, srv.Addr(), PeerOptions{Stats: ws}))
	}
	a.SetPeers(peers)
	a.Update("k", store.Value("v"))
	if !a.FlushMail(0) {
		t.Fatal("flush timed out")
	}
	for _, n := range receivers {
		st := n.Stats()
		if st.MailBatchesReceived != 1 || st.MailMaxQueuedNanos <= 0 {
			t.Errorf("site %d received %d batches with max queue age %d ns, want 1 and > 0",
				n.Site(), st.MailBatchesReceived, st.MailMaxQueuedNanos)
		}
	}
	if snap := ws.Snapshot(); snap.MailBatches != 4 || snap.MailBatchEntries != 4 {
		t.Errorf("wire shows %d batches / %d entries, want 4 / 4", snap.MailBatches, snap.MailBatchEntries)
	}
}
