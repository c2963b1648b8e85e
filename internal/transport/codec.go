package transport

import (
	"encoding/binary"
	"math"
	"math/bits"

	"epidemic/internal/obs/cluster"
	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// Hand-rolled binary codec for the exchange frames: the one wire format.
// It writes the request/response structs field by field into a buffer the
// session reuses across messages. Only hashes and floats are fixed width:
// checksums, the shard vector and the digest floats. Everything else is a
// varint — counts, clock values, site ids, sequence numbers, timestamps —
// and keys and values are length-prefixed. A steady-state in-sync exchange
// encodes and decodes without allocating.
//
// A timestamp.T is written relative to a reference time ref: the zigzag
// varint of Time − ref, then Site and Seq as uvarints. A frame's Bound
// uses ref 0. In an entries section an entry's Stamp uses the previous
// entry's Stamp.Time (0 for the first), so a section of nearby stamps pays
// a few bytes per stamp, and its Activation uses its own Stamp.Time, so a
// live entry's activation, equal to its stamp, costs 3 bytes. The
// subtraction and the addition both wrap in int64, so every Time
// round-trips.
//
// No section is optional: requests end in the cluster-digest, shard and
// mail-telemetry sections, responses in the first two, each a few zero
// bytes when empty. The version byte in the connection hello (frame.go) is
// the only gate.

// --- append-style encoders ---

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendVarint zigzag-encodes a signed value.
func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendUint64(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// appendSite writes a site id as the uvarint of its 32 bits: small ids
// cost one byte and every int32 round-trips.
func appendSite(b []byte, s timestamp.SiteID) []byte {
	return appendUvarint(b, uint64(uint32(s)))
}

// appendStamp writes t relative to ref (see the layout note above).
func appendStamp(b []byte, t timestamp.T, ref int64) []byte {
	b = appendVarint(b, t.Time-ref)
	b = appendSite(b, t.Site)
	return appendUvarint(b, uint64(t.Seq))
}

func appendEntries(b []byte, entries []store.Entry) []byte {
	b = appendUvarint(b, uint64(len(entries)))
	var ref int64
	for i := range entries {
		e := &entries[i]
		b = appendUvarint(b, uint64(len(e.Key)))
		b = append(b, e.Key...)
		if e.Value == nil {
			// The distinguished NIL of a death certificate, kept distinct
			// from a present-but-empty value.
			b = appendUvarint(b, 0)
		} else {
			b = appendUvarint(b, uint64(len(e.Value))+1)
			b = append(b, e.Value...)
		}
		b = appendStamp(b, e.Stamp, ref)
		b = appendStamp(b, e.Activation, e.Stamp.Time)
		ref = e.Stamp.Time
		b = appendUvarint(b, uint64(len(e.Retention)))
		for _, s := range e.Retention {
			b = appendSite(b, s)
		}
	}
	return b
}

// appendHops writes each hop's parent site, its count zigzag-encoded (so
// trace.HopUnknown costs one byte) and its valid byte.
func appendHops(b []byte, hops []trace.Hop) []byte {
	b = appendUvarint(b, uint64(len(hops)))
	for _, h := range hops {
		b = appendSite(b, h.Parent)
		b = appendVarint(b, int64(h.Count))
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
	return appendUint64(b, math.Float64bits(v))
}

// appendSummary writes one LatencySummary: count, then the two quantiles
// as fixed-width float bits.
func appendSummary(b []byte, s *cluster.LatencySummary) []byte {
	b = appendUvarint(b, s.Count)
	b = appendFloat64(b, s.P50)
	return appendFloat64(b, s.P99)
}

// appendDigests writes the trailing cluster-digest section: a count then
// each digest field by field. A nil or empty slice costs one zero byte —
// disabled digests are (nearly) free. Field order matches
// (*wireReader).digests.
func appendDigests(b []byte, digests []cluster.Digest) []byte {
	b = appendUvarint(b, uint64(len(digests)))
	for i := range digests {
		d := &digests[i]
		b = appendSite(b, timestamp.SiteID(d.Site))
		b = appendVarint(b, d.Stamp)
		b = appendVarint(b, d.StartedAt)
		b = appendVarint(b, d.StoreKeys)
		b = appendUint64(b, d.Checksum)
		b = appendVarint(b, d.HotRumors)
		b = appendVarint(b, d.Peers)
		b = appendVarint(b, d.Members)
		b = appendVarint(b, d.AERuns)
		b = appendVarint(b, d.RumorRuns)
		b = appendVarint(b, d.WireMsgsBinary)
		b = appendVarint(b, d.UDPPushes)
		b = appendVarint(b, d.UDPFallbacks)
		b = appendFloat64(b, d.Residue)
		b = appendFloat64(b, d.TLastSeconds)
		b = appendVarint(b, d.LastAE)
		b = appendSummary(b, &d.AntiEntropy)
		b = appendSummary(b, &d.Rumor)
	}
	return b
}

// appendVector writes a response's bucket-vector section: a count then
// each bucket checksum as fixed 8 bytes. A nil or empty vector costs one
// zero byte, so responses of every other kind stay cheap.
func appendVector(b []byte, vec []uint64) []byte {
	b = appendUvarint(b, uint64(len(vec)))
	for _, v := range vec {
		b = appendUint64(b, v)
	}
	return b
}

// appendRequest encodes req after b. Field order matches decodeRequest;
// the digest, shard and mail-telemetry sections trail every request.
func appendRequest(b []byte, req *request) []byte {
	b = append(b, byte(req.Kind))
	b = appendSite(b, req.From)
	b = appendUint64(b, req.Checksum)
	b = appendVarint(b, req.Now)
	b = appendVarint(b, req.Tau)
	b = appendVarint(b, req.Tau1)
	b = appendStamp(b, req.Bound, 0)
	b = appendVarint(b, int64(req.Limit))
	b = appendEntries(b, req.Entries)
	b = appendHops(b, req.Hops)
	b = appendDigests(b, req.Digests)
	b = appendVarint(b, int64(req.Shard))
	b = appendVarint(b, int64(req.ShardCount))
	// Mail-batch telemetry: zero outside reqMailBatch, so other kinds pay
	// two bytes. Responses carry no such section.
	b = appendVarint(b, req.MailQueuedNanos)
	return appendVarint(b, req.MailCoalesced)
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
	b = appendUint64(b, resp.Checksum)
	b = appendVarint(b, resp.Now)
	b = appendStamp(b, resp.Bound, 0)
	// Needed is a packed bitset: length then ceil(n/8) bytes, LSB first.
	b = appendUvarint(b, uint64(len(resp.Needed)))
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
	b = appendEntries(b, resp.Entries)
	b = appendHops(b, resp.Hops)
	b = appendUvarint(b, uint64(len(resp.Err)))
	b = append(b, resp.Err...)
	b = appendDigests(b, resp.Digests)
	b = appendVarint(b, int64(resp.ShardCount))
	return appendVector(b, resp.Vector)
}

// --- cursor-style decoder ---

// wireReader walks one frame payload. The first malformed read latches an
// error; subsequent reads are no-ops returning zero values, so decoders
// can run straight-line and check err once.
type wireReader struct {
	buf []byte
	pos int
	err error
}

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *wireReader) remaining() int { return len(r.buf) - r.pos }

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail(ErrTruncatedFrame)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	// Most varints in a frame are one byte: counts, site ids, sequence
	// numbers, equal-stamp deltas.
	if r.pos < len(r.buf) && r.buf[r.pos] < 0x80 {
		r.pos++
		return uint64(r.buf[r.pos-1])
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncatedFrame) // buffer ended mid-varint
		} else {
			r.fail(ErrFrameGarbage) // > 64 bits: not a value we ever wrote
		}
		return 0
	}
	r.pos += n
	return v
}

// varint reads a zigzag-encoded signed value.
func (r *wireReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// take returns the next n payload bytes without copying; the caller must
// copy anything that outlives the frame.
func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.fail(ErrTruncatedFrame)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *wireReader) uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// uvarint32 reads a uvarint that must fit in 32 bits, as every site id and
// sequence number does; a wider value is garbage.
func (r *wireReader) uvarint32() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail(ErrFrameGarbage)
		return 0
	}
	return uint32(v)
}

// varint32 reads a zigzag varint that must fit in an int32.
func (r *wireReader) varint32() int32 {
	v := r.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail(ErrFrameGarbage)
		return 0
	}
	return int32(v)
}

func (r *wireReader) site() timestamp.SiteID {
	return timestamp.SiteID(int32(r.uvarint32()))
}

// stamp reads a timestamp written relative to ref by appendStamp.
func (r *wireReader) stamp(ref int64) timestamp.T {
	return timestamp.T{
		Time: ref + r.varint(),
		Site: r.site(),
		Seq:  r.uvarint32(),
	}
}

// count reads a collection length and sanity-checks it against the bytes
// actually left in the frame (each element costs at least minBytes), so a
// forged length can never drive a large allocation.
func (r *wireReader) count(minBytes int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.remaining()/max(minBytes, 1)) {
		r.fail(ErrTruncatedFrame)
		return 0
	}
	return int(v)
}

// Minimum encoded sizes, used to bound collection counts before
// allocating.
const (
	// stampMinWire: Time delta, Site and Seq, one byte each at least.
	stampMinWire = 3
	// entryMinWire: key length, value length, two stamps, retention count.
	entryMinWire = 1 + 1 + 2*stampMinWire + 1
	// hopMinWire: parent site, count, valid byte.
	hopMinWire = 3
	// siteMaxWire is a site id at full width (32 bits of uvarint).
	siteMaxWire = 5
	// digestMinWire: site + 8-byte checksum + two 8-byte floats + 12
	// varints of at least one byte + two 17-byte summaries.
	digestMinWire = 1 + 8 + 16 + 12 + 2*17
	// digestMaxWire is the same record with every varint at full width.
	digestMaxWire = siteMaxWire + 8 + 16 + 12*binary.MaxVarintLen64 + 2*(binary.MaxVarintLen64+16)
)

func (r *wireReader) entries() []store.Entry {
	n := r.count(entryMinWire)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]store.Entry, n)
	var ref int64
	for i := range out {
		e := &out[i]
		e.Key = string(r.take(int(r.uvarint())))
		vlen := r.uvarint()
		if vlen > 0 {
			// Copy: the frame payload buffer is reused by the session.
			v := r.take(int(vlen) - 1)
			if r.err == nil {
				e.Value = append(store.Value(nil), v...)
				if e.Value == nil {
					e.Value = store.Value{} // non-nil empty stays non-nil
				}
			}
		}
		e.Stamp = r.stamp(ref)
		e.Activation = r.stamp(e.Stamp.Time)
		ref = e.Stamp.Time
		if nr := r.count(1); nr > 0 {
			e.Retention = make([]timestamp.SiteID, nr)
			for j := range e.Retention {
				e.Retention[j] = r.site()
			}
		}
		if r.err != nil {
			return nil
		}
	}
	return out
}

func (r *wireReader) hops() []trace.Hop {
	n := r.count(hopMinWire)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]trace.Hop, n)
	for i := range out {
		out[i] = trace.Hop{
			Parent: r.site(),
			Count:  r.varint32(),
			Valid:  r.byte() != 0,
		}
	}
	return out
}

// vector reads a response's bucket-vector section: a count (sanity-checked against
// the remaining bytes at 8 bytes per element, so a forged length never
// drives a large allocation) then that many fixed-width checksums.
func (r *wireReader) vector() []uint64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.uint64()
	}
	return out
}

func (r *wireReader) float64() float64 {
	return math.Float64frombits(r.uint64())
}

func (r *wireReader) summary() cluster.LatencySummary {
	return cluster.LatencySummary{
		Count: r.uvarint(),
		P50:   r.float64(),
		P99:   r.float64(),
	}
}

func (r *wireReader) digests() []cluster.Digest {
	n := r.count(digestMinWire)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]cluster.Digest, n)
	for i := range out {
		d := &out[i]
		d.Site = int32(r.site())
		d.Stamp = r.varint()
		d.StartedAt = r.varint()
		d.StoreKeys = r.varint()
		d.Checksum = r.uint64()
		d.HotRumors = r.varint()
		d.Peers = r.varint()
		d.Members = r.varint()
		d.AERuns = r.varint()
		d.RumorRuns = r.varint()
		d.WireMsgsBinary = r.varint()
		d.UDPPushes = r.varint()
		d.UDPFallbacks = r.varint()
		d.Residue = r.float64()
		d.TLastSeconds = r.float64()
		d.LastAE = r.varint()
		d.AntiEntropy = r.summary()
		d.Rumor = r.summary()
		if r.err != nil {
			return nil
		}
	}
	return out
}

// finish reports the terminal decode state: a latched error, trailing
// garbage, or success.
func (r *wireReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return ErrFrameGarbage
	}
	return nil
}

// decodeRequest decodes one frame payload into req, overwriting every field
// (so a reused struct never leaks state between messages).
func decodeRequest(payload []byte, req *request) error {
	r := wireReader{buf: payload}
	req.Kind = reqKind(r.byte())
	req.From = r.site()
	req.Checksum = r.uint64()
	req.Now = r.varint()
	req.Tau = r.varint()
	req.Tau1 = r.varint()
	req.Bound = r.stamp(0)
	req.Limit = int(r.varint())
	req.Entries = r.entries()
	req.Hops = r.hops()
	req.Digests = r.digests()
	req.Shard = int(r.varint())
	req.ShardCount = int(r.varint())
	req.MailQueuedNanos = r.varint()
	req.MailCoalesced = r.varint()
	return r.finish()
}

// decodeResponse decodes one frame payload into resp, overwriting every
// field.
func decodeResponse(payload []byte, resp *response) error {
	r := wireReader{buf: payload}
	resp.More = r.byte()&respMore != 0
	resp.Checksum = r.uint64()
	resp.Now = r.varint()
	resp.Bound = r.stamp(0)
	// Needed packs 8 bools per byte, so its count check is its own.
	nNeeded := int(r.uvarint())
	if r.err == nil && (nNeeded < 0 || nNeeded > 8*r.remaining()) {
		r.fail(ErrTruncatedFrame)
	}
	resp.Needed = nil
	if r.err == nil && nNeeded > 0 {
		packed := r.take((nNeeded + 7) / 8)
		if r.err == nil {
			resp.Needed = make([]bool, nNeeded)
			for i := range resp.Needed {
				resp.Needed[i] = packed[i/8]&(1<<(i%8)) != 0
			}
		}
	}
	resp.Entries = r.entries()
	resp.Hops = r.hops()
	errLen := r.uvarint()
	resp.Err = string(r.take(int(errLen)))
	resp.Digests = r.digests()
	resp.ShardCount = int(r.varint())
	resp.Vector = r.vector()
	return r.finish()
}

// requestWireSize returns an upper bound on appendRequest's output for
// req — the UDP fast path uses it to decide whether a push fits in one
// datagram without encoding twice. Sites, stamps and hops are sized
// exactly, with the refs appendEntries uses, so the bound stays tight.
func requestWireSize(req *request) int {
	n := 1 + siteLen(req.From) + 8 + 3*binary.MaxVarintLen64 + stampLen(req.Bound, 0) + binary.MaxVarintLen64
	n += uvarintLen(uint64(len(req.Entries)))
	var ref int64
	for i := range req.Entries {
		e := &req.Entries[i]
		n += uvarintLen(uint64(len(e.Key))) + len(e.Key)
		n += uvarintLen(uint64(len(e.Value))+1) + len(e.Value)
		n += stampLen(e.Stamp, ref) + stampLen(e.Activation, e.Stamp.Time)
		ref = e.Stamp.Time
		n += uvarintLen(uint64(len(e.Retention)))
		for _, s := range e.Retention {
			n += siteLen(s)
		}
	}
	n += uvarintLen(uint64(len(req.Hops)))
	for _, h := range req.Hops {
		n += siteLen(h.Parent) + varintLen(int64(h.Count)) + 1
	}
	n += uvarintLen(uint64(len(req.Digests))) + digestMaxWire*len(req.Digests)
	// Shard, ShardCount, MailQueuedNanos and MailCoalesced.
	return n + 4*binary.MaxVarintLen64
}

// stampLen is the length appendStamp writes for t against ref.
func stampLen(t timestamp.T, ref int64) int {
	return varintLen(t.Time-ref) + siteLen(t.Site) + uvarintLen(uint64(t.Seq))
}

func siteLen(s timestamp.SiteID) int { return uvarintLen(uint64(uint32(s))) }

func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// varintLen is the zigzag varint length of v.
func varintLen(v int64) int {
	return uvarintLen(uint64(v<<1) ^ uint64(v>>63))
}
