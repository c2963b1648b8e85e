package transport

import (
	"encoding/binary"
	"math"

	"epidemic/internal/obs/cluster"
	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
	"epidemic/internal/wire"
)

// Hand-rolled binary codec for the exchange frames: the one wire format.
// It writes the request/response structs field by field into a buffer the
// session reuses across messages. Only hashes and floats are fixed width:
// checksums, the shard vector and the digest floats. Everything else is a
// varint — counts, clock values, site ids, sequence numbers, timestamps —
// and keys and values are length-prefixed. The primitives are package
// wire's, and the entries section of requests and responses is the
// store's own (store.AppendEntries, store.ReadEntries), the layout
// snapshots use too. A frame's Bound is a timestamp relative to 0. A
// steady-state in-sync exchange encodes and decodes without allocating.
//
// No section is optional: requests end in the cluster-digest, shard and
// mail-telemetry sections, responses in the first two, each a few zero
// bytes when empty. The version byte in the connection hello (frame.go) is
// the only gate.

// --- append-style encoders ---

// appendHops writes each hop's parent site, its count zigzag-encoded (so
// trace.HopUnknown costs one byte) and its valid byte.
func appendHops(b []byte, hops []trace.Hop) []byte {
	b = binary.AppendUvarint(b, uint64(len(hops)))
	for _, h := range hops {
		b = wire.AppendSite(b, h.Parent)
		b = binary.AppendVarint(b, int64(h.Count))
		b = append(b, boolByte(h.Valid))
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// appendFloat64 writes the IEEE-754 bits big-endian.
func appendFloat64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// appendSummary writes one LatencySummary: count, then the two quantiles
// as fixed-width float bits.
func appendSummary(b []byte, s *cluster.LatencySummary) []byte {
	b = binary.AppendUvarint(b, s.Count)
	b = appendFloat64(b, s.P50)
	return appendFloat64(b, s.P99)
}

// appendDigests writes the trailing cluster-digest section: a count then
// each digest field by field. A nil or empty slice costs one zero byte —
// disabled digests are (nearly) free. Field order matches
// (*wireReader).digests.
func appendDigests(b []byte, digests []cluster.Digest) []byte {
	b = binary.AppendUvarint(b, uint64(len(digests)))
	for i := range digests {
		d := &digests[i]
		b = wire.AppendSite(b, timestamp.SiteID(d.Site))
		b = binary.AppendVarint(b, d.Stamp)
		b = binary.AppendVarint(b, d.StartedAt)
		b = binary.AppendVarint(b, d.StoreKeys)
		b = binary.BigEndian.AppendUint64(b, d.Checksum)
		b = binary.AppendVarint(b, d.HotRumors)
		b = binary.AppendVarint(b, d.Peers)
		b = binary.AppendVarint(b, d.Members)
		b = binary.AppendVarint(b, d.AERuns)
		b = binary.AppendVarint(b, d.RumorRuns)
		b = binary.AppendVarint(b, d.WireMsgsBinary)
		b = appendFloat64(b, d.Residue)
		b = appendFloat64(b, d.TLastSeconds)
		b = binary.AppendVarint(b, d.LastAE)
		b = appendSummary(b, &d.AntiEntropy)
		b = appendSummary(b, &d.Rumor)
	}
	return b
}

// digestSectionLen is len(appendDigests(nil, digests)), counted without
// encoding so the wire stats can measure the section of every frame at no
// allocation. Field order matches appendDigests.
func digestSectionLen(digests []cluster.Digest) int {
	var buf [binary.MaxVarintLen64]byte
	uv := func(v uint64) int { return binary.PutUvarint(buf[:], v) }
	sv := func(v int64) int { return binary.PutVarint(buf[:], v) }
	// Fixed width: the checksum, the two floats and the four summary
	// quantiles.
	const fixed = 8 + 2*8 + 4*8
	n := uv(uint64(len(digests)))
	for i := range digests {
		d := &digests[i]
		n += fixed + uv(uint64(uint32(d.Site))) + sv(d.Stamp) + sv(d.StartedAt) + sv(d.StoreKeys) +
			sv(d.HotRumors) + sv(d.Peers) + sv(d.Members) + sv(d.AERuns) + sv(d.RumorRuns) +
			sv(d.WireMsgsBinary) + sv(d.LastAE) + uv(d.AntiEntropy.Count) + uv(d.Rumor.Count)
	}
	return n
}

// appendVector writes a response's bucket-vector section: a count then
// each bucket checksum as fixed 8 bytes. A nil or empty vector costs one
// zero byte, so responses of every other kind stay cheap.
func appendVector(b []byte, vec []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vec)))
	for _, v := range vec {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return b
}

// appendRequest encodes req after b. Field order matches decodeRequest;
// the digest, shard and mail-telemetry sections trail every request.
func appendRequest(b []byte, req *request) []byte {
	b = append(b, byte(req.Kind))
	b = wire.AppendSite(b, req.From)
	b = binary.AppendVarint(b, req.Now)
	b = binary.AppendVarint(b, req.Tau1)
	b = wire.AppendStamp(b, req.Bound, 0)
	b = binary.AppendVarint(b, int64(req.Limit))
	b = store.AppendEntries(b, req.Entries)
	b = appendHops(b, req.Hops)
	b = appendDigests(b, req.Digests)
	b = binary.AppendVarint(b, int64(req.Shard))
	b = binary.AppendVarint(b, int64(req.ShardCount))
	// Mail-batch telemetry: zero outside reqMailBatch, so other kinds pay
	// two bytes. Responses carry no such section.
	b = binary.AppendVarint(b, req.MailQueuedNanos)
	return binary.AppendVarint(b, req.MailCoalesced)
}

// Response flag bits. Bit 0 was an in-sync bit no client read; it is
// retired and written as zero.
const respMore = 1 << 1

// appendResponse encodes resp after b. Field order matches decodeResponse;
// the digest and shard sections trail every response.
func appendResponse(b []byte, resp *response) []byte {
	var flags byte
	if resp.More {
		flags |= respMore
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint64(b, resp.Checksum)
	b = binary.AppendVarint(b, resp.Now)
	b = wire.AppendStamp(b, resp.Bound, 0)
	// Needed is a packed bitset: length then ceil(n/8) bytes, LSB first.
	b = binary.AppendUvarint(b, uint64(len(resp.Needed)))
	var acc, n byte
	for _, need := range resp.Needed {
		if need {
			acc |= 1 << n
		}
		if n++; n == 8 {
			b = append(b, acc)
			acc, n = 0, 0
		}
	}
	if n > 0 {
		b = append(b, acc)
	}
	b = store.AppendEntries(b, resp.Entries)
	b = appendHops(b, resp.Hops)
	b = binary.AppendUvarint(b, uint64(len(resp.Err)))
	b = append(b, resp.Err...)
	b = appendDigests(b, resp.Digests)
	b = binary.AppendVarint(b, int64(resp.ShardCount))
	return appendVector(b, resp.Vector)
}

// --- cursor-style decoder ---

// wireReader walks one frame payload: package wire's cursor plus the
// frame's own sections. The first malformed read latches an error;
// subsequent reads are no-ops returning zero values, so decoders can run
// straight-line and check the error once.
type wireReader struct {
	wire.Reader
}

// Minimum encoded sizes, used to bound collection counts before
// allocating.
const (
	// hopMinWire: parent site, count, valid byte.
	hopMinWire = 3
	// digestMinWire: site + 8-byte checksum + two 8-byte floats + 10
	// varints of at least one byte + two 17-byte summaries.
	digestMinWire = 1 + 8 + 16 + 10 + 2*17
)

func (r *wireReader) hops() []trace.Hop {
	n := r.Count(hopMinWire)
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]trace.Hop, n)
	for i := range out {
		out[i] = trace.Hop{
			Parent: r.Site(),
			Count:  r.Varint32(),
			Valid:  r.Byte() != 0,
		}
	}
	return out
}

// vector reads a response's bucket-vector section: a count (sanity-checked
// against the remaining bytes at 8 bytes per element, so a forged length never
// drives a large allocation) then that many fixed-width checksums. It reuses
// dst's backing array when it is large enough, so the vector that opens
// every anti-entropy conversation decodes without allocating.
func (r *wireReader) vector(dst []uint64) []uint64 {
	n := r.Count(8)
	if r.Err() != nil || n == 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	out := dst[:n]
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

func (r *wireReader) float64() float64 {
	return math.Float64frombits(r.Uint64())
}

func (r *wireReader) summary() cluster.LatencySummary {
	return cluster.LatencySummary{
		Count: r.Uvarint(),
		P50:   r.float64(),
		P99:   r.float64(),
	}
}

func (r *wireReader) digests() []cluster.Digest {
	n := r.Count(digestMinWire)
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]cluster.Digest, n)
	for i := range out {
		d := &out[i]
		d.Site = int32(r.Site())
		d.Stamp = r.Varint()
		d.StartedAt = r.Varint()
		d.StoreKeys = r.Varint()
		d.Checksum = r.Uint64()
		d.HotRumors = r.Varint()
		d.Peers = r.Varint()
		d.Members = r.Varint()
		d.AERuns = r.Varint()
		d.RumorRuns = r.Varint()
		d.WireMsgsBinary = r.Varint()
		d.Residue = r.float64()
		d.TLastSeconds = r.float64()
		d.LastAE = r.Varint()
		d.AntiEntropy = r.summary()
		d.Rumor = r.summary()
		if r.Err() != nil {
			return nil
		}
	}
	return out
}

// decodeRequest decodes one frame payload into req, overwriting every field
// (so a reused struct never leaks state between messages).
func decodeRequest(payload []byte, req *request) error {
	r := wireReader{wire.NewReader(payload)}
	req.Kind = reqKind(r.Byte())
	req.From = r.Site()
	req.Now = r.Varint()
	req.Tau1 = r.Varint()
	req.Bound = r.Stamp(0)
	req.Limit = int(r.Varint())
	req.Entries = store.ReadEntries(&r.Reader)
	req.Hops = r.hops()
	req.Digests = r.digests()
	req.Shard = int(r.Varint())
	req.ShardCount = int(r.Varint())
	req.MailQueuedNanos = r.Varint()
	req.MailCoalesced = r.Varint()
	return r.Finish()
}

// decodeResponse decodes one frame payload into resp, overwriting every
// field. The vector lands in resp.Vector's backing array when it fits; every
// other slice is fresh.
func decodeResponse(payload []byte, resp *response) error {
	r := wireReader{wire.NewReader(payload)}
	resp.More = r.Byte()&respMore != 0
	resp.Checksum = r.Uint64()
	resp.Now = r.Varint()
	resp.Bound = r.Stamp(0)
	// Needed packs 8 bools per byte, so its count check is its own.
	nNeeded := int(r.Uvarint())
	if r.Err() == nil && (nNeeded < 0 || nNeeded > 8*r.Remaining()) {
		r.Fail(ErrTruncatedFrame)
	}
	resp.Needed = nil
	if r.Err() == nil && nNeeded > 0 {
		packed := r.Take((nNeeded + 7) / 8)
		if r.Err() == nil {
			resp.Needed = make([]bool, nNeeded)
			for i := range resp.Needed {
				resp.Needed[i] = packed[i/8]&(1<<(i%8)) != 0
			}
		}
	}
	resp.Entries = store.ReadEntries(&r.Reader)
	resp.Hops = r.hops()
	errLen := r.Uvarint()
	resp.Err = string(r.Take(int(errLen)))
	resp.Digests = r.digests()
	resp.ShardCount = int(r.Varint())
	resp.Vector = r.vector(resp.Vector)
	return r.Finish()
}
