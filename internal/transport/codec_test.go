package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
	"epidemic/internal/wire"
)

// codecRequests covers the field shapes the binary codec must preserve:
// zero values, negative clocks, nil-vs-empty values (the death-certificate
// distinction), retention lists, and traced pushes.
func codecRequests() []request {
	return []request{
		{},
		{Kind: reqChecksum, Tau1: 42},
		{Kind: reqShardVector, From: 3, Now: -7, Tau1: 1 << 40, ShardCount: 64},
		{Kind: reqPeelBackShard, Bound: timestamp.T{Time: 99, Site: 2, Seq: 7}, Limit: 64, Shard: 3, ShardCount: 4},
		{
			Kind: 1, // the retired per-entry mail kind: the codec still carries it
			Entries: []store.Entry{
				{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1, Site: 1, Seq: 1}},
			},
		},
		{
			Kind: reqPushRumors,
			From: 9,
			Entries: []store.Entry{
				{Key: "", Value: store.Value{}, Stamp: timestamp.T{Time: -5, Site: 1}},
				{Key: "dead", Value: nil, Stamp: timestamp.T{Time: 2, Site: 2, Seq: 3},
					Activation: timestamp.T{Time: 8, Site: 2, Seq: 4},
					Retention:  []timestamp.SiteID{1, 5, 9}},
				{Key: "big", Value: store.Value(bytes.Repeat([]byte{0xab}, 300)),
					Stamp: timestamp.T{Time: 1 << 50, Site: 1 << 20, Seq: 1 << 30}},
			},
			Hops: []trace.Hop{
				{Parent: 4, Count: 2, Valid: true},
				{Parent: -1, Count: trace.HopUnknown},
				{},
			},
		},
		// Extreme stamps: Time at both ends of int64, so every delta wraps;
		// the widest Site and Seq; entries out of time order; activations
		// older than their stamps.
		{
			Kind:  reqPushRumors,
			From:  -1,
			Bound: timestamp.T{Time: math.MinInt64, Site: -1, Seq: math.MaxUint32},
			Entries: []store.Entry{
				{Key: "max", Stamp: timestamp.T{Time: math.MaxInt64, Site: -1, Seq: math.MaxUint32},
					Activation: timestamp.T{Time: math.MinInt64, Site: math.MaxInt32, Seq: math.MaxUint32}},
				{Key: "min", Value: store.Value("v"), Stamp: timestamp.T{Time: math.MinInt64, Site: math.MinInt32},
					Activation: timestamp.T{Time: math.MaxInt64, Site: -1}},
				{Key: "older", Stamp: timestamp.T{Time: 1 << 40, Site: 2, Seq: 1},
					Activation: timestamp.T{Time: 1<<40 - 9, Site: 1},
					Retention:  []timestamp.SiteID{-1, math.MaxInt32, 0}},
				{Key: "back", Stamp: timestamp.T{Time: -7, Site: 5}, Activation: timestamp.T{Time: -7, Site: 5}},
			},
			Hops: []trace.Hop{
				{Parent: math.MinInt32, Count: math.MinInt32, Valid: true},
				{Parent: math.MaxInt32, Count: math.MaxInt32},
			},
		},
	}
}

func codecResponses() []response {
	return []response{
		{},
		{Err: "remote exploded"},
		{Checksum: 12345, Now: 678},
		{More: true, Bound: timestamp.T{Time: -3, Site: 7, Seq: 1}},
		{More: true, Bound: timestamp.T{Time: math.MaxInt64, Site: -1, Seq: math.MaxUint32}},
		{Needed: []bool{true}},
		{Needed: []bool{true, false, true, false, true, false, true}},        // 7: partial byte
		{Needed: []bool{false, true, false, true, false, true, false, true}}, // 8: exact byte
		{Needed: append(make([]bool, 8), true)},                              // 9: byte + 1
		{Needed: func() []bool { n := make([]bool, 65); n[64] = true; return n }()},
		{
			Entries: []store.Entry{
				{Key: "x", Value: nil, Stamp: timestamp.T{Time: 5, Site: 5, Seq: 5}},
				{Key: "y", Value: store.Value("data"), Stamp: timestamp.T{Time: 6, Site: 6, Seq: 6}},
			},
			Hops:     []trace.Hop{{Parent: 1, Count: 1, Valid: true}, {Valid: false}},
			Checksum: 1, Now: 2, More: true,
		},
	}
}

// normalizeEntries maps the wire's nil/empty conventions onto reflect
// equality: a nil Entries/Hops/Needed slice and a zero-length one are the
// same wire object.
func normalizeReq(r *request) {
	if len(r.Entries) == 0 {
		r.Entries = nil
	}
	if len(r.Hops) == 0 {
		r.Hops = nil
	}
	for i := range r.Entries {
		if len(r.Entries[i].Retention) == 0 {
			r.Entries[i].Retention = nil
		}
	}
}

func normalizeResp(r *response) {
	if len(r.Entries) == 0 {
		r.Entries = nil
	}
	if len(r.Hops) == 0 {
		r.Hops = nil
	}
	if len(r.Needed) == 0 {
		r.Needed = nil
	}
	for i := range r.Entries {
		if len(r.Entries[i].Retention) == 0 {
			r.Entries[i].Retention = nil
		}
	}
}

func TestCodecRequestRoundTrip(t *testing.T) {
	for i, req := range codecRequests() {
		payload := appendRequest(nil, &req)
		// Decode into a dirty struct: every field must be overwritten.
		got := request{Kind: 99, From: 99, Now: 99,
			Tau1: 99, Bound: timestamp.T{Time: 99}, Limit: 99,
			Entries: []store.Entry{{Key: "stale"}}, Hops: []trace.Hop{{Count: 9}}}
		if err := decodeRequest(payload, &got); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		want := req
		normalizeReq(&want)
		normalizeReq(&got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestCodecResponseRoundTrip(t *testing.T) {
	for i, resp := range codecResponses() {
		payload := appendResponse(nil, &resp)
		got := response{Needed: []bool{true}, Entries: []store.Entry{{Key: "stale"}},
			Checksum: 99, Now: 99, Bound: timestamp.T{Time: 99},
			More: true, Hops: []trace.Hop{{Count: 9}}, Err: "stale"}
		if err := decodeResponse(payload, &got); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		want := resp
		normalizeResp(&want)
		normalizeResp(&got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestCodecValueNilVsEmpty pins the death-certificate distinction on the
// wire: a nil value (deleted) and an empty value (present, zero bytes)
// must survive a round trip as themselves.
func TestCodecValueNilVsEmpty(t *testing.T) {
	req := request{Kind: reqMailBatch, Entries: []store.Entry{
		{Key: "dead", Value: nil, Stamp: timestamp.T{Time: 1, Site: 1}},
		{Key: "empty", Value: store.Value{}, Stamp: timestamp.T{Time: 2, Site: 1}},
	}}
	var got request
	if err := decodeRequest(appendRequest(nil, &req), &got); err != nil {
		t.Fatal(err)
	}
	if got.Entries[0].Value != nil {
		t.Errorf("nil value decoded as %v", got.Entries[0].Value)
	}
	if got.Entries[1].Value == nil {
		t.Error("empty value decoded as nil")
	}
}

// TestCodecTruncationEveryPrefix chops valid payloads at every length:
// decode must fail with a typed error — never panic, never succeed (except
// at full length).
func TestCodecTruncationEveryPrefix(t *testing.T) {
	for i, req := range codecRequests() {
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
	for i, resp := range codecResponses() {
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

// TestCodecTrailingGarbage appends junk after a valid payload: the decoder
// must notice the frame was not fully consumed.
func TestCodecTrailingGarbage(t *testing.T) {
	req := codecRequests()[2]
	payload := append(appendRequest(nil, &req), 0xde, 0xad)
	var got request
	if err := decodeRequest(payload, &got); !errors.Is(err, ErrFrameGarbage) {
		t.Errorf("decodeRequest err = %v, want ErrFrameGarbage", err)
	}
	resp := codecResponses()[2]
	rp := append(appendResponse(nil, &resp), 0xbe)
	var gotR response
	if err := decodeResponse(rp, &gotR); !errors.Is(err, ErrFrameGarbage) {
		t.Errorf("decodeResponse err = %v, want ErrFrameGarbage", err)
	}
}

// TestCodecForgedCountsRejected hand-builds payloads whose collection
// counts promise more than the frame holds; the sanity checks must refuse
// them before any large allocation.
func TestCodecForgedCountsRejected(t *testing.T) {
	// A request whose entry count claims 2^40 entries.
	var b []byte
	b = append(b, byte(reqPushRumors))
	b = wire.AppendSite(b, 1)
	b = binary.AppendVarint(b, 0) // Now
	b = binary.AppendVarint(b, 0) // Tau1
	b = wire.AppendStamp(b, timestamp.T{}, 0)
	b = binary.AppendVarint(b, 0)      // Limit
	b = binary.AppendUvarint(b, 1<<40) // forged entry count
	var got request
	if err := decodeRequest(b, &got); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("forged entry count: err = %v, want ErrTruncatedFrame", err)
	}

	// A response whose Needed count far exceeds 8 bits per remaining byte.
	var rb []byte
	rb = append(rb, 0) // flags
	rb = binary.BigEndian.AppendUint64(rb, 0)
	rb = binary.AppendVarint(rb, 0)
	rb = wire.AppendStamp(rb, timestamp.T{}, 0)
	rb = binary.AppendUvarint(rb, 1<<40) // forged Needed count
	var gotR response
	if err := decodeResponse(rb, &gotR); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("forged needed count: err = %v, want ErrTruncatedFrame", err)
	}
}

// TestCodecWideSiteOrSeqRejected: a site id or sequence number wider than
// 32 bits was never written by this codec, so the decoder calls it garbage
// rather than truncating it.
func TestCodecWideSiteOrSeqRejected(t *testing.T) {
	raw := func(from, site, seq uint64) []byte {
		b := []byte{byte(reqPushRumors)}
		b = binary.AppendUvarint(b, from)
		b = append(b, 0, 0)           // Now, Tau1
		b = binary.AppendVarint(b, 0) // Bound.Time
		b = binary.AppendUvarint(b, site)
		b = binary.AppendUvarint(b, seq)
		// Limit, then empty entries, hops, digests, shard, shard count and
		// the two mail fields.
		return append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	const widest, wide = math.MaxUint32, math.MaxUint32 + 1
	var got request
	if err := decodeRequest(raw(widest, widest, widest), &got); err != nil {
		t.Fatalf("32-bit site and seq refused: %v", err)
	}
	if got.From != -1 || got.Bound != (timestamp.T{Site: -1, Seq: math.MaxUint32}) {
		t.Errorf("32-bit fields decoded as From %d, Bound %v", got.From, got.Bound)
	}
	for _, tc := range []struct {
		name            string
		from, site, seq uint64
	}{
		{"From", wide, 1, 1},
		{"Bound.Site", 1, wide, 1},
		{"Bound.Seq", 1, 1, wide},
	} {
		if err := decodeRequest(raw(tc.from, tc.site, tc.seq), &got); !errors.Is(err, ErrFrameGarbage) {
			t.Errorf("33-bit %s: err = %v, want ErrFrameGarbage", tc.name, err)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to both decoders. They must never
// panic, and anything that decodes cleanly must re-encode and re-decode to
// the same value (the codec is its own inverse on its image).
func FuzzDecodeFrame(f *testing.F) {
	// codecRequests and codecResponses include the extreme stamps: Time at
	// both int64 ends, Site -1, Seq MaxUint32, entries out of time order
	// and activations older than their stamps.
	for _, req := range codecRequests() {
		f.Add(appendRequest(nil, &req))
	}
	for _, resp := range codecResponses() {
		f.Add(appendResponse(nil, &resp))
	}
	// Seed shard-vector and bucket-peel frames so the fuzzer starts with
	// populated shard sections to mutate, the malformed bucket requests a
	// server refuses included.
	for _, req := range append(shardRequests(), malformedBucketRequests()...) {
		f.Add(appendRequest(nil, &req))
	}
	for _, resp := range shardResponses() {
		f.Add(appendResponse(nil, &resp))
	}
	// And mail batches with their telemetry section.
	for _, req := range mailRequests() {
		f.Add(appendRequest(nil, &req))
	}
	// And the two frames of a rumor offer: value-less ids out, want-bits
	// plus entries back.
	for _, req := range offerRequests() {
		f.Add(appendRequest(nil, &req))
	}
	for _, resp := range offerResponses() {
		f.Add(appendResponse(nil, &resp))
	}
	// And the two frames an anti-entropy conversation may add to its walks:
	// the vector that opens it, digests both ways, and the checksum carrier
	// of a certificate a walk woke.
	for _, fr := range conversationFrames() {
		f.Add(appendRequest(nil, &fr.req))
		f.Add(appendResponse(nil, &fr.resp))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req request
		if err := decodeRequest(payload, &req); err == nil {
			re := appendRequest(nil, &req)
			var again request
			if err := decodeRequest(re, &again); err != nil {
				t.Fatalf("re-decode of re-encoded request failed: %v", err)
			}
			normalizeReq(&req)
			normalizeReq(&again)
			if !reflect.DeepEqual(req, again) {
				t.Fatalf("request not stable under re-encode:\n1st %+v\n2nd %+v", req, again)
			}
		} else if !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrFrameGarbage) {
			t.Fatalf("decodeRequest returned untyped error %v", err)
		}
		var resp response
		if err := decodeResponse(payload, &resp); err == nil {
			re := appendResponse(nil, &resp)
			var again response
			if err := decodeResponse(re, &again); err != nil {
				t.Fatalf("re-decode of re-encoded response failed: %v", err)
			}
			normalizeShardResp(&resp)
			normalizeShardResp(&again)
			if !reflect.DeepEqual(resp, again) {
				t.Fatalf("response not stable under re-encode:\n1st %+v\n2nd %+v", resp, again)
			}
		} else if !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrFrameGarbage) {
			t.Fatalf("decodeResponse returned untyped error %v", err)
		}
	})
}

// TestCodecNames pins the Codec option vocabulary: "" and "binary" name the
// one wire format; every name older builds accepted, and any typo, is an
// error.
func TestCodecNames(t *testing.T) {
	for _, name := range []string{"", "binary"} {
		if err := checkCodec(name); err != nil {
			t.Errorf("checkCodec(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range append(retiredCodecs(), "binray", "protobuf", "BINARY") {
		if err := checkCodec(name); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Errorf("checkCodec(%q) = %v, want an error naming it", name, err)
		}
	}
}

// retiredCodecs are the Codec names earlier builds accepted, each of which
// picked an older wire format. All are refused now.
func retiredCodecs() []string {
	return []string{"binary-v2", "binary-v3", "binary-v4", "gob", "legacy"}
}
