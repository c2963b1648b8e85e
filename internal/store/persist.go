package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"epidemic/internal/timestamp"
	"epidemic/internal/wire"
)

// The paper assumes replicas and mail queues live on stable storage (§1.2:
// "the queues are kept in stable storage at the mail server so they are
// unaffected by server crashes"). Save/Load give a Store the same
// property. A snapshot is the magic, a version byte, then a stream of
// chunks, each a 4-byte big-endian length and one entries section (the
// layout the wire carries, codec.go), ended by a zero length. Entries are
// written oldest stamp first: Load inserts into sorted per-shard time
// indexes, which is cheapest when every insert appends. Timestamps and
// death-certificate metadata are kept verbatim, so a reloaded replica
// re-enters the epidemic exactly where it left off and anti-entropy
// repairs whatever it missed while down.

const (
	snapshotMagic   = "epidemic-store"
	snapshotVersion = 2
	// gobMagicV1 is how a version-1 snapshot, a gob stream, spells its
	// header's Magic and Version fields.
	gobMagicV1 = "\x0eepidemic-store\x01\x02"
	// saveRun is about how many entries Save gathers per pass over the
	// shards, and chunkTarget about how many bytes it puts in one chunk.
	saveRun     = 4096
	chunkTarget = 1 << 20
)

// Save writes a snapshot of the store to w. It walks the store in
// ascending stamp order a run at a time, holding one shard's read lock
// at a time, so writers are never stopped and memory stays bounded by a
// run. An entry written during the walk is saved if its stamp is still
// ahead of the walk; one replaced behind it is saved as it was. Write
// errors are sticky in the bufio.Writer, so the final Flush reports them.
func (s *Store) Save(w io.Writer) error {
	cw := chunkWriter{w: bufio.NewWriter(w)}
	cw.w.WriteString(snapshotMagic)
	cw.w.WriteByte(snapshotVersion)
	per := make([][]Entry, len(s.shards))
	quota := max(saveRun/len(s.shards), 64)
	var (
		run   []Entry
		after *timestamp.T
	)
	for {
		run = s.nextRun(per, run[:0], after, quota)
		if len(run) == 0 {
			break
		}
		for i := range run {
			if err := cw.add(&run[i]); err != nil {
				return err
			}
		}
		last := run[len(run)-1].Stamp
		after = &last
	}
	cw.flush()
	cw.w.Write([]byte{0, 0, 0, 0}) // end of snapshot
	if err := cw.w.Flush(); err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	return nil
}

// nextRun appends to dst the entries that follow *after (all from the
// oldest when after is nil) in ascending stamp order, as far as one pass
// of up to quota entries per shard can vouch for: a shard that fills its
// quota may hold more past its last collected stamp, so the run stops at
// the least such stamp. The run is never empty while entries remain.
func (s *Store) nextRun(per [][]Entry, dst []Entry, after *timestamp.T, quota int) []Entry {
	var horizon *timestamp.T
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		per[i] = sh.appendAfter(per[i][:0], after, quota)
		sh.mu.RUnlock()
		if len(per[i]) == quota {
			if h := &per[i][quota-1].Stamp; horizon == nil || h.Less(*horizon) {
				horizon = h
			}
		}
	}
	dst = mergeAsc(dst, per)
	for horizon != nil && horizon.Less(dst[len(dst)-1].Stamp) {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// chunkWriter cuts the entry stream into chunks of at most chunkTarget
// bytes (or one larger entry), each one entries section.
type chunkWriter struct {
	w    *bufio.Writer
	body []byte // the open chunk's entries, without the section count
	n    int    // entries in body
	ref  int64  // Stamp.Time of body's last entry
}

// add appends e to the open chunk, or opens the next chunk with it when
// the open one would pass chunkTarget.
func (c *chunkWriter) add(e *Entry) error {
	mark := len(c.body)
	c.body = appendEntry(c.body, e, c.ref)
	if len(c.body) > chunkTarget && c.n > 0 {
		c.body = c.body[:mark]
		c.flush()
		c.body = appendEntry(c.body, e, 0)
	}
	if len(c.body)+binary.MaxVarintLen64 > wire.MaxFrame {
		return fmt.Errorf("store: entry %q does not fit a %d-byte snapshot chunk", e.Key, wire.MaxFrame)
	}
	c.n++
	c.ref = e.Stamp.Time
	return nil
}

// flush writes the open chunk, if any: length, section count, entries.
func (c *chunkWriter) flush() {
	if c.n == 0 {
		return
	}
	var hdr [4 + binary.MaxVarintLen64]byte
	count := binary.AppendUvarint(hdr[:4], uint64(c.n))
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(count)-4+len(c.body)))
	c.w.Write(count)
	c.w.Write(c.body)
	c.body, c.n, c.ref = c.body[:0], 0, 0
}

// Load merges a snapshot from r into the store chunk by chunk via the
// ordinary timestamp merge rules, so loading is safe even over a non-empty
// replica (newer local state wins). It returns the number of entries read.
// A version-1 (gob) snapshot is refused: delete it, and the replica
// refills through anti-entropy.
func (s *Store) Load(r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	if err := readSnapshotHeader(br); err != nil {
		return 0, err
	}
	var (
		chunk bytes.Buffer
		size  [4]byte
		n     int
	)
	for {
		if _, err := io.ReadFull(br, size[:]); err != nil {
			return n, fmt.Errorf("store: snapshot ends without its end marker after %d entries: %w", n, err)
		}
		l := binary.BigEndian.Uint32(size[:])
		if l == 0 {
			return n, nil
		}
		if l > wire.MaxFrame {
			return n, fmt.Errorf("store: snapshot chunk of %d bytes exceeds %d", l, wire.MaxFrame)
		}
		// CopyN grows the buffer as bytes arrive, so a forged length
		// costs no more than the bytes actually there.
		chunk.Reset()
		if _, err := io.CopyN(&chunk, br, int64(l)); err != nil {
			return n, fmt.Errorf("store: snapshot chunk of %d bytes cut short: %w", l, err)
		}
		cr := wire.NewReader(chunk.Bytes())
		entries := ReadEntries(&cr)
		if err := cr.Finish(); err != nil {
			return n, fmt.Errorf("store: snapshot chunk after %d entries: %w", n, err)
		}
		for _, e := range entries {
			s.Apply(e)
		}
		n += len(entries)
	}
}

// readSnapshotHeader consumes the magic and checks the version.
func readSnapshotHeader(br *bufio.Reader) error {
	if hdr, err := br.Peek(len(snapshotMagic) + 1); err == nil && string(hdr[:len(snapshotMagic)]) == snapshotMagic {
		if v := hdr[len(snapshotMagic)]; v != snapshotVersion {
			return fmt.Errorf("store: unsupported snapshot version %d, want %d", v, snapshotVersion)
		}
		_, err := br.Discard(len(hdr))
		return err
	}
	if head, _ := br.Peek(256); bytes.Contains(head, []byte(gobMagicV1)) {
		return fmt.Errorf("store: snapshot version 1 (gob) is no longer read, want %d: delete the file; the replica refills through anti-entropy", snapshotVersion)
	}
	return errors.New("store: not a store snapshot")
}

// SaveFile atomically and durably writes a snapshot to path: write and
// fsync a temp file, rename it over path, then fsync the directory so the
// rename itself survives a crash.
func (s *Store) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".store-*.tmp")
	if err != nil {
		return fmt.Errorf("store: create temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := s.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: rename: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync directory: %w", err)
	}
	return nil
}

// LoadFile merges a snapshot file into the store. A missing file is not
// an error (fresh replica); it returns (0, nil).
func (s *Store) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: open snapshot: %w", err)
	}
	defer f.Close()
	return s.Load(f)
}
