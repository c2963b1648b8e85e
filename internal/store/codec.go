package store

import (
	"encoding/binary"

	"epidemic/internal/timestamp"
	"epidemic/internal/wire"
)

// The entries section is the one serialisation of an Entry: the wire's
// exchange frames carry it and a snapshot is a stream of it. A section is
// a count, then per entry the length-prefixed key, the value (length + 1,
// so 0 is the distinguished NIL of a death certificate, kept apart from a
// present-but-empty value), Stamp relative to the previous entry's
// Stamp.Time (0 for the first), Activation relative to its own Stamp.Time,
// and the retention list as a count of site ids. A section of nearby
// stamps therefore pays a few bytes per stamp, and a live entry's
// activation, equal to its stamp, costs 3 bytes.

// entryMinWire is the least an entry costs: key length, value length, two
// stamps of three one-byte varints each, retention count.
const entryMinWire = 1 + 1 + 2*3 + 1

// AppendEntries appends the entries section for entries to b.
func AppendEntries(b []byte, entries []Entry) []byte {
	b = binary.AppendUvarint(b, uint64(len(entries)))
	var ref int64
	for i := range entries {
		b = appendEntry(b, &entries[i], ref)
		ref = entries[i].Stamp.Time
	}
	return b
}

// appendEntry appends one entry of a section whose previous entry's
// Stamp.Time is ref.
func appendEntry(b []byte, e *Entry, ref int64) []byte {
	b = binary.AppendUvarint(b, uint64(len(e.Key)))
	b = append(b, e.Key...)
	if e.Value == nil {
		b = binary.AppendUvarint(b, 0)
	} else {
		b = binary.AppendUvarint(b, uint64(len(e.Value))+1)
		b = append(b, e.Value...)
	}
	b = wire.AppendStamp(b, e.Stamp, ref)
	b = wire.AppendStamp(b, e.Activation, e.Stamp.Time)
	b = binary.AppendUvarint(b, uint64(len(e.Retention)))
	for _, s := range e.Retention {
		b = wire.AppendSite(b, s)
	}
	return b
}

// ReadEntries decodes the entries section at r's cursor and advances the
// cursor past the bytes it consumed. A malformed section latches r's error
// (wire.ErrTruncated or wire.ErrGarbage) and returns nil. Keys, values and
// retention lists are copied out, so the buffer may be reused.
func ReadEntries(r *wire.Reader) []Entry {
	n := r.Count(entryMinWire)
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]Entry, n)
	var ref int64
	for i := range out {
		e := &out[i]
		e.Key = string(r.Take(int(r.Uvarint())))
		if vlen := r.Uvarint(); vlen > 0 {
			if v := r.Take(int(vlen) - 1); r.Err() == nil {
				e.Value = append(make(Value, 0, len(v)), v...) // non-nil even when empty
			}
		}
		e.Stamp = r.Stamp(ref)
		e.Activation = r.Stamp(e.Stamp.Time)
		ref = e.Stamp.Time
		if nr := r.Count(1); nr > 0 {
			e.Retention = make([]timestamp.SiteID, nr)
			for j := range e.Retention {
				e.Retention[j] = r.Site()
			}
		}
		if r.Err() != nil {
			return nil
		}
	}
	return out
}
