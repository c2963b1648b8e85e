package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"epidemic/internal/timestamp"
	"epidemic/internal/wire"
)

// TestSaveLoadRoundTrip saves a 16-shard store and loads it into 1-, 16-
// and 64-shard stores: every entry comes back with its value (NIL and
// empty kept apart), stamp, activation and retention list, and the saved
// stream is in stamp order whatever the key order.
func TestSaveLoadRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name      string
		build     func(src *timestamp.Simulated, s *Store)
		minChunks int
	}{
		{"death certificate with retention", func(src *timestamp.Simulated, s *Store) {
			s.Update("a", Value("1"))
			src.Advance(1)
			s.Delete("c", []timestamp.SiteID{1, 4, -1})
		}, 1},
		{"present but empty value", func(_ *timestamp.Simulated, s *Store) {
			s.Update("empty", Value{})
		}, 1},
		{"reactivated certificate", func(src *timestamp.Simulated, s *Store) {
			s.Delete("gone", nil)
			src.Advance(50)
			s.Reactivate("gone") // Activation moves past Stamp
		}, 1},
		{"dormant certificate", func(src *timestamp.Simulated, s *Store) {
			s.Delete("old", []timestamp.SiteID{1})
			src.Advance(1 << 20)
			s.Update("new", Value("n"))
		}, 1},
		{"shuffled keys", func(src *timestamp.Simulated, s *Store) {
			// More entries than one pass over the shards gathers, written
			// in an order that is not key order.
			for _, i := range rand.New(rand.NewSource(1)).Perm(3 * saveRun) {
				s.Update(fmt.Sprintf("k%05d", i), Value(fmt.Sprint(i)))
				src.Advance(1)
			}
		}, 1},
		{"values spanning chunks", func(src *timestamp.Simulated, s *Store) {
			for i := range 3 {
				s.Update(fmt.Sprint("big", i), bytes.Repeat([]byte{byte(i)}, chunkTarget/2+1))
				src.Advance(1)
			}
		}, 3},
		{"empty store", func(*timestamp.Simulated, *Store) {}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := timestamp.NewSimulated(1)
			s := NewSharded(1, src.ClockAt(1), 16)
			tc.build(src, s)
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Fatal(err)
			}
			stream, chunks := decodeSnapshot(t, buf.Bytes())
			if chunks < tc.minChunks {
				t.Errorf("%d chunks, want at least %d", chunks, tc.minChunks)
			}
			for i := 1; i < len(stream); i++ {
				if stream[i].Stamp.Less(stream[i-1].Stamp) {
					t.Fatalf("entry %d (%q) is older than the one before it", i, stream[i].Key)
				}
			}
			want := s.Snapshot()
			for _, shards := range []int{1, 16, 64} {
				restored := NewSharded(2, src.ClockAt(2), shards)
				n, err := restored.Load(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("%d shards: %v", shards, err)
				}
				if n != len(want) {
					t.Errorf("%d shards: loaded %d entries, want %d", shards, n, len(want))
				}
				if got := restored.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Errorf("%d shards: restored snapshot differs", shards)
				}
				if restored.Checksum() != s.Checksum() {
					t.Errorf("%d shards: restored checksum differs", shards)
				}
			}
		})
	}
}

// decodeSnapshot parses a snapshot stream into its entries, in stream
// order, and counts its chunks.
func decodeSnapshot(t *testing.T, b []byte) (stream []Entry, chunks int) {
	t.Helper()
	head := snapshotMagic + string(rune(snapshotVersion))
	if !strings.HasPrefix(string(b), head) {
		t.Fatal("snapshot header missing")
	}
	b = b[len(head):]
	for {
		if len(b) < 4 {
			t.Fatal("snapshot ends without its end marker")
		}
		l := binary.BigEndian.Uint32(b)
		if l == 0 {
			return stream, chunks
		}
		r := wire.NewReader(b[4 : 4+l])
		stream = append(stream, ReadEntries(&r)...)
		if err := r.Finish(); err != nil {
			t.Fatalf("chunk %d: %v", chunks, err)
		}
		b = b[4+l:]
		chunks++
	}
}

// snapshotOf frames each section as one chunk after a version-2 header
// and ends the stream, or leaves it open when end is false.
func snapshotOf(end bool, sections ...[]byte) []byte {
	b := append([]byte(snapshotMagic), snapshotVersion)
	for _, sec := range sections {
		b = binary.BigEndian.AppendUint32(b, uint32(len(sec)))
		b = append(b, sec...)
	}
	if end {
		b = append(b, 0, 0, 0, 0)
	}
	return b
}

func TestLoadMergesNotOverwrites(t *testing.T) {
	src := timestamp.NewSimulated(1)
	s := New(1, src.ClockAt(1))
	s.Update("k", Value("old"))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The live replica has moved on since the snapshot.
	src.Advance(10)
	s.Update("k", Value("newer"))
	if _, err := s.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Lookup("k"); string(v) != "newer" {
		t.Fatalf("stale snapshot overwrote newer state: %q", v)
	}
}

// TestLoadRejectsGarbage: each malformed snapshot is refused with an
// error, never a panic, and leaves the store consistent.
func TestLoadRejectsGarbage(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "snapshot-v1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	one := AppendEntries(nil, []Entry{{Key: "k", Value: Value("v"), Stamp: timestamp.T{Time: 1, Site: 1}, Activation: timestamp.T{Time: 1, Site: 1}}})
	// A one-entry section whose Stamp.Site needs 33 bits.
	wideSite := []byte{1, 1, 'k', 0, 0}
	wideSite = binary.AppendUvarint(wideSite, 1<<32)
	wideSite = append(wideSite, 0, 0, 0, 0, 0)
	future := append([]byte(snapshotMagic), 99)
	for _, tc := range []struct {
		name, wantErr string
		data          []byte
	}{
		{"not a snapshot", "not a store snapshot", []byte("not a snapshot")},
		{"wrong magic", "not a store snapshot", append([]byte("epidemic-stXre\x02"), snapshotOf(true, one)[len(snapshotMagic)+1:]...)},
		{"future version", "version 99", append(future, snapshotOf(true, one)[len(future):]...)},
		{"version 1 gob", "version 1 (gob)", v1},
		{"chunk above the cap", "exceeds", binary.BigEndian.AppendUint32(snapshotOf(false), wire.MaxFrame+1)},
		{"chunk shorter than its length", "cut short", snapshotOf(false, one)[:len(snapshotOf(false, one))-2]},
		{"count the chunk cannot hold", "truncated", snapshotOf(true, append([]byte{100}, one[1:]...))},
		{"33-bit site", "malformed", snapshotOf(true, wideSite)},
		{"trailing bytes in a chunk", "malformed", snapshotOf(true, append(one[:len(one):len(one)], 0))},
		{"no end marker", "end marker", snapshotOf(false, one)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1, timestamp.NewSimulated(1).ClockAt(1))
			s.Update("pre", Value("p"))
			_, err := s.Load(bytes.NewReader(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want one mentioning %q", err, tc.wantErr)
			}
			assertChecksumConsistent(t, s)
		})
	}
}

// assertChecksumConsistent checks the incremental checksum against a
// recomputation over every entry.
func assertChecksumConsistent(t testing.TB, s *Store) {
	t.Helper()
	var sum uint64
	for _, e := range s.Snapshot() {
		sum ^= e.hash()
	}
	if sum != s.Checksum() {
		t.Fatal("checksum diverged from the entries")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "replica.snap")
	src := timestamp.NewSimulated(1)
	s := New(1, src.ClockAt(1))
	s.Update("k", Value("v"))

	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored := New(1, src.ClockAt(1))
	n, err := restored.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !ContentEqual(s, restored) {
		t.Fatal("file round trip failed")
	}
	// Missing file is a fresh replica, not an error.
	fresh := New(2, src.ClockAt(2))
	if n, err := fresh.LoadFile(filepath.Join(dir, "missing.snap")); err != nil || n != 0 {
		t.Errorf("missing file: n=%d err=%v", n, err)
	}
	// SaveFile into a nonexistent directory fails cleanly.
	if err := s.SaveFile(filepath.Join(dir, "nope", "x.snap")); err == nil {
		t.Error("expected error for bad directory")
	}
}
