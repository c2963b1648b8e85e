package transport

import (
	"errors"
	"reflect"
	"testing"

	"epidemic/internal/timestamp"
)

// shardRequests are field shapes specific to the shard section: vector
// requests, bucket-scoped peels, and the zero section every other kind
// carries.
func shardRequests() []request {
	return []request{
		{Kind: reqShardVector, From: 4, Now: 77, Tau1: 9, ShardCount: 16},
		{Kind: reqShardVector, ShardCount: 1},
		{Kind: reqPeelBackShard, From: 2, Shard: 13, ShardCount: 16,
			Bound: timestamp.T{Time: 50, Site: 1, Seq: 2}, Limit: 8},
		{Kind: reqPeelBackShard, Shard: 1023, ShardCount: 1024},
		{Kind: reqChecksum, Tau1: 42}, // empty shard section
	}
}

func shardResponses() []response {
	return []response{
		{ShardCount: 16, Vector: []uint64{7, 0, 0xffffffffffffffff}, Checksum: 3, Now: 9},
		{ShardCount: 1, Vector: []uint64{0}},
		{Checksum: 11, More: true, Bound: timestamp.T{Time: -2, Site: 3}}, // empty section
	}
}

func normalizeShardResp(r *response) {
	normalizeResp(r)
	if len(r.Vector) == 0 {
		r.Vector = nil
	}
}

// TestCodecShardRoundTrip runs both the shard-specific shapes and the whole
// base table through an encode/decode into dirty shard fields.
func TestCodecShardRoundTrip(t *testing.T) {
	for i, req := range append(shardRequests(), codecRequests()...) {
		payload := appendRequest(nil, &req)
		got := request{Shard: 99, ShardCount: 99}
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
	for i, resp := range append(shardResponses(), codecResponses()...) {
		payload := appendResponse(nil, &resp)
		got := response{ShardCount: 99, Vector: []uint64{99}}
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

// TestCodecShardSectionGatedByVersion pins that the hello's version byte is
// the only gate: the shard section is part of every frame, so a frame in
// the older layout that ended before it is refused as truncated instead of
// decoding with zero shard fields.
func TestCodecShardSectionGatedByVersion(t *testing.T) {
	req := request{Kind: reqChecksum, Tau1: 42}
	payload := appendRequest(nil, &req)
	// Shard and ShardCount, then the two mail varints.
	old := payload[:len(payload)-4]
	var got request
	if err := decodeRequest(old, &got); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("request without shard section: err = %v, want ErrTruncatedFrame", err)
	}
	resp := response{Checksum: 3}
	rp := appendResponse(nil, &resp)
	var gotR response
	if err := decodeResponse(rp[:len(rp)-2], &gotR); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("response without shard section: err = %v, want ErrTruncatedFrame", err)
	}
}

// TestCodecShardTruncationEveryPrefix chops shard payloads at every length:
// typed errors only, never a panic or a false success.
func TestCodecShardTruncationEveryPrefix(t *testing.T) {
	for i, req := range shardRequests() {
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
	for i, resp := range shardResponses() {
		payload := appendResponse(nil, &resp)
		for n := 0; n < len(payload); n++ {
			var got response
			err := decodeResponse(payload[:n], &got)
			if err == nil {
				t.Fatalf("case %d: decode of %d/%d-byte prefix succeeded", i, n, len(payload))
			}
			if !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrFrameGarbage) {
				t.Fatalf("case %d: prefix %d: untyped error %v", i, n, err)
			}
		}
	}
}

// TestCodecShardForgedVectorCount hand-builds a response whose vector count
// promises far more 8-byte sums than the frame holds; the count-vs-remaining
// check must refuse it before allocating.
func TestCodecShardForgedVectorCount(t *testing.T) {
	resp := response{ShardCount: 16}
	payload := appendResponse(nil, &resp)
	// The encoding ends ...ShardCount vectorCount(0): forge the count byte
	// into a huge uvarint.
	forged := append(append([]byte(nil), payload[:len(payload)-1]...), 0xff, 0xff, 0xff, 0xff, 0x0f)
	var got response
	if err := decodeResponse(forged, &got); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("forged vector count: err = %v, want ErrTruncatedFrame", err)
	}
}
