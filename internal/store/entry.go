// Package store implements the replicated database each site maintains: a
// partial map from keys to (value, timestamp) pairs (§1.1 of the paper),
// including deletion via death certificates with activation timestamps and
// dormant retention (§2), incremental checksums, recent-update lists, and
// the reverse-timestamp index used by the peel-back variant of anti-entropy
// (§1.3).
package store

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"

	"epidemic/internal/timestamp"
)

// Value is a database value. A nil Value is the paper's distinguished NIL:
// the item has been deleted and the entry is a death certificate.
type Value []byte

// Entry is one (key, value, timestamp) triple. The zero Entry is invalid.
type Entry struct {
	Key   string
	Value Value
	// Stamp is the ordinary timestamp: a pair with a larger Stamp always
	// supersedes one with a smaller Stamp.
	Stamp timestamp.T
	// Activation is the activation timestamp of §2.2. For ordinary entries
	// and freshly created death certificates it equals Stamp; reactivating
	// a dormant death certificate advances Activation (never Stamp), so the
	// certificate propagates again without cancelling newer updates.
	Activation timestamp.T
	// Retention lists the sites that keep a dormant copy of this death
	// certificate after τ1 (§2.1). Empty for ordinary entries.
	Retention []timestamp.SiteID
}

// IsDeath reports whether the entry is a death certificate.
func (e Entry) IsDeath() bool { return e.Value == nil }

// RetainedBy reports whether site is on the entry's retention list.
func (e Entry) RetainedBy(site timestamp.SiteID) bool {
	for _, s := range e.Retention {
		if s == site {
			return true
		}
	}
	return false
}

// Supersedes reports whether e supersedes other (strictly newer ordinary
// timestamp for the same key).
func (e Entry) Supersedes(other Entry) bool { return other.Stamp.Less(e.Stamp) }

// Equal reports whether two entries carry identical database content
// (key, value, ordinary timestamp). Activation and retention metadata are
// not content.
func (e Entry) Equal(other Entry) bool {
	return e.Key == other.Key && e.Stamp == other.Stamp && bytes.Equal(e.Value, other.Value)
}

// hash returns a 64-bit content hash of the entry. Database checksums are
// the XOR of entry hashes, so they can be maintained incrementally and are
// independent of iteration order. Activation and retention metadata are
// excluded: two databases agreeing on content must agree on checksum.
func (e Entry) hash() uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(e.Key))
	_, _ = h.Write([]byte{0})
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(e.Stamp.Time))
	_, _ = h.Write(b[:])
	binary.LittleEndian.PutUint32(b[:4], uint32(e.Stamp.Site))
	_, _ = h.Write(b[:4])
	binary.LittleEndian.PutUint32(b[:4], e.Stamp.Seq)
	_, _ = h.Write(b[:4])
	if e.IsDeath() {
		_, _ = h.Write([]byte{0})
	} else {
		_, _ = h.Write([]byte{1})
		_, _ = h.Write(e.Value)
	}
	return h.Sum64()
}

// clone returns a deep copy of the entry so callers cannot alias internal
// state.
func (e Entry) clone() Entry {
	out := e
	if e.Value != nil {
		// Preserve non-nilness even for empty values: nil means deletion.
		v := make(Value, len(e.Value))
		copy(v, e.Value)
		out.Value = v
	}
	if e.Retention != nil {
		out.Retention = append([]timestamp.SiteID(nil), e.Retention...)
	}
	return out
}
