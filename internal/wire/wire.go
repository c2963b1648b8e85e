// Package wire holds the binary primitives every encoded byte of the
// system is built from — varints, zigzag varints, site ids and relative
// timestamps — and the cursor that reads them back. The exchange frames
// (internal/transport) and the store's entries section (internal/store,
// which snapshots reuse) are both written with these, so each primitive
// has one implementation.
//
// A timestamp.T is written relative to a reference time ref: the zigzag
// varint of Time − ref, then Site and Seq as uvarints. The subtraction and
// the addition both wrap in int64, so every Time round-trips.
package wire

import (
	"encoding/binary"
	"errors"
	"math"

	"epidemic/internal/timestamp"
)

// MaxFrame bounds one encoded unit — a transport frame or a snapshot
// chunk — so a forged length can never drive an unbounded allocation.
const MaxFrame = 64 << 20

var (
	// ErrTruncated reports an encoding that ended early: a length or
	// count promised more bytes than remain.
	ErrTruncated = errors.New("wire: truncated encoding")
	// ErrGarbage reports an encoding that is malformed — a varint wider
	// than 64 bits, a site or sequence number wider than 32 — or not fully
	// consumed by its decoded value.
	ErrGarbage = errors.New("wire: malformed encoding")
)

// AppendSite writes a site id as the uvarint of its 32 bits: small ids
// cost one byte and every int32 round-trips.
func AppendSite(b []byte, s timestamp.SiteID) []byte {
	return binary.AppendUvarint(b, uint64(uint32(s)))
}

// AppendStamp writes t relative to ref (see the package note).
func AppendStamp(b []byte, t timestamp.T, ref int64) []byte {
	b = binary.AppendVarint(b, t.Time-ref)
	b = AppendSite(b, t.Site)
	return binary.AppendUvarint(b, uint64(t.Seq))
}

// Reader walks one encoded buffer. The first malformed read latches an
// error; subsequent reads are no-ops returning zero values, so decoders
// can run straight-line and check Err once.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a Reader at the start of b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Fail latches err unless an earlier error is already latched.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.Fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	// Most varints are one byte: counts, site ids, sequence numbers,
	// equal-stamp deltas.
	if r.pos < len(r.buf) && r.buf[r.pos] < 0x80 {
		r.pos++
		return uint64(r.buf[r.pos-1])
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		if n == 0 {
			r.Fail(ErrTruncated) // buffer ended mid-varint
		} else {
			r.Fail(ErrGarbage) // > 64 bits: not a value we ever wrote
		}
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a zigzag-encoded signed value.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Take returns the next n bytes without copying; the caller must copy
// anything that outlives the buffer.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.Fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Uint64 reads 8 big-endian bytes.
func (r *Reader) Uint64() uint64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Uvarint32 reads a uvarint that must fit in 32 bits, as every site id
// and sequence number does; a wider value is garbage.
func (r *Reader) Uvarint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Fail(ErrGarbage)
		return 0
	}
	return uint32(v)
}

// Varint32 reads a zigzag varint that must fit in an int32.
func (r *Reader) Varint32() int32 {
	v := r.Varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.Fail(ErrGarbage)
		return 0
	}
	return int32(v)
}

// Site reads a site id written by AppendSite.
func (r *Reader) Site() timestamp.SiteID {
	return timestamp.SiteID(int32(r.Uvarint32()))
}

// Stamp reads a timestamp written relative to ref by AppendStamp.
func (r *Reader) Stamp(ref int64) timestamp.T {
	return timestamp.T{
		Time: ref + r.Varint(),
		Site: r.Site(),
		Seq:  r.Uvarint32(),
	}
}

// Count reads a collection length and checks it against the bytes left
// (each element costs at least minBytes), so a forged length can never
// drive a large allocation.
func (r *Reader) Count(minBytes int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.Remaining()/max(minBytes, 1)) {
		r.Fail(ErrTruncated)
		return 0
	}
	return int(v)
}

// Finish reports the terminal decode state: a latched error, trailing
// bytes, or success.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return ErrGarbage
	}
	return nil
}
