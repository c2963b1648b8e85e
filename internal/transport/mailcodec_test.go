package transport

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
	"epidemic/internal/wire"
)

// mailRequests are field shapes specific to the mail-telemetry section:
// batched mail with engine telemetry, and the zero section every other
// kind carries.
func mailRequests() []request {
	return []request{
		{
			Kind: reqMailBatch,
			Entries: []store.Entry{
				{Key: "a", Value: store.Value("1"), Stamp: timestamp.T{Time: 1, Site: 1}},
				{Key: "b", Value: nil, Stamp: timestamp.T{Time: 2, Site: 1, Seq: 3}},
			},
			Hops:            []trace.Hop{{Parent: 1, Count: 2, Valid: true}, {}},
			MailQueuedNanos: 1 << 40,
			MailCoalesced:   7,
		},
		{Kind: reqMailBatch, MailQueuedNanos: -1, MailCoalesced: 0},
		{Kind: reqChecksum, Tau1: 42}, // empty mail section
	}
}

// TestCodecMailRoundTrip runs the mail shapes plus the shard and base
// tables through an encode/decode into dirty mail fields.
func TestCodecMailRoundTrip(t *testing.T) {
	all := append(mailRequests(), append(shardRequests(), codecRequests()...)...)
	for i, req := range all {
		payload := appendRequest(nil, &req)
		got := request{MailQueuedNanos: 99, MailCoalesced: 99}
		if err := decodeRequest(payload, &got); err != nil {
			t.Fatalf("request case %d: decode: %v", i, err)
		}
		want := req
		normalizeReq(&want)
		normalizeReq(&got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("request case %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
	}
	// Responses carry no mail section; the whole table must still round-trip.
	for i, resp := range append(shardResponses(), codecResponses()...) {
		payload := appendResponse(nil, &resp)
		var got response
		if err := decodeResponse(payload, &got); err != nil {
			t.Fatalf("response case %d: decode: %v", i, err)
		}
		want := resp
		normalizeShardResp(&want)
		normalizeShardResp(&got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("response case %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestCodecMailSectionGatedByVersion pins that the hello's version byte is
// the only gate: every request carries the mail section, two bytes when
// empty, so a frame in the older layout that ended before it is refused as
// truncated instead of decoding with zero telemetry.
func TestCodecMailSectionGatedByVersion(t *testing.T) {
	req := mailRequests()[2]
	payload := appendRequest(nil, &req)
	var got request
	if err := decodeRequest(payload[:len(payload)-2], &got); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("request without mail section: err = %v, want ErrTruncatedFrame", err)
	}
	if tail := payload[len(payload)-2:]; tail[0] != 0 || tail[1] != 0 {
		t.Errorf("empty mail section = % x, want two zero bytes", tail)
	}
}

// TestCodecMailTruncationEveryPrefix chops mail payloads at every length:
// typed errors only, never a panic or a false success.
func TestCodecMailTruncationEveryPrefix(t *testing.T) {
	for i, req := range mailRequests() {
		payload := appendRequest(nil, &req)
		for n := 0; n < len(payload); n++ {
			var got request
			err := decodeRequest(payload[:n], &got)
			if err == nil {
				t.Fatalf("case %d: decode of %d/%d-byte prefix succeeded", i, n, len(payload))
			}
			if !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrFrameGarbage) {
				t.Fatalf("case %d: prefix %d: untyped error %v", i, n, err)
			}
		}
	}
}

// TestCodecMailBatchForgedEntryCount hand-builds a mail-batch frame
// whose entry count promises far more entries than the frame holds; the
// count-vs-remaining check must refuse it before allocating.
func TestCodecMailBatchForgedEntryCount(t *testing.T) {
	var b []byte
	b = append(b, byte(reqMailBatch))
	b = wire.AppendSite(b, 1)
	b = binary.AppendVarint(b, 0) // Now
	b = binary.AppendVarint(b, 0) // Tau1
	b = wire.AppendStamp(b, timestamp.T{}, 0)
	b = binary.AppendVarint(b, 0)      // Limit
	b = binary.AppendUvarint(b, 1<<40) // forged entry count
	var got request
	if err := decodeRequest(b, &got); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("forged mail-batch entry count: err = %v, want ErrTruncatedFrame", err)
	}
}
