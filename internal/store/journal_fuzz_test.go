package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// frames encodes recs as journal records, framed exactly as appendRecord
// writes them.
func frames(t testing.TB, recs ...journalRec) []byte {
	var out []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		out = append(append(out, hdr[:]...), payload...)
	}
	return out
}

func putRec(kind, key string) journalRec {
	return journalRec{Op: opPut, Kind: kind, Key: key, File: objectPath(kind, key), Size: 2}
}

// replayFixture lays out a store directory whose objects directory holds
// outcome/key00 and outcome/key01, next to a file outside the store that a
// tampered record might name, and writes journal as its journal. It
// returns the store directory and the outside file.
func replayFixture(t testing.TB, journal []byte) (dir, outside string) {
	root := t.TempDir()
	dir = filepath.Join(root, "store")
	outside = filepath.Join(root, "x.json")
	for _, key := range []string{"key00", "key01"} {
		path := filepath.Join(dir, objectPath("outcome", key))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(outside, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, outside
}

// indexed lists the store's (kind, key) pairs, sorted, failing t on any
// entry whose file is not the object path Put would have used.
func indexed(t testing.TB, s *Store) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for ik, e := range s.index {
		if e.file != objectPath(e.kind, e.key) || !strings.HasPrefix(e.file, objectsDir+string(filepath.Separator)) {
			t.Fatalf("indexed %s/%s at %q, outside %s/", e.kind, e.key, e.file, objectsDir)
		}
		out = append(out, ik)
	}
	slices.Sort(out)
	return out
}

// TestReplaySkipsForeignRecords: a CRC-valid put naming a file outside the
// objects directory (or carrying a bad key or size) is not indexed, the
// valid records after it still replay, and nothing outside the store is
// read or removed.
func TestReplaySkipsForeignRecords(t *testing.T) {
	escape := putRec("outcome", "key00")
	escape.File = filepath.Join("..", "x.json")
	badKey := putRec("outcome", "key01")
	badKey.Key = "../key01"
	negative := putRec("outcome", "key01")
	negative.Size = -1
	dir, outside := replayFixture(t, frames(t, escape, badKey, negative, putRec("outcome", "key01")))

	s := mustOpen(t, dir, Options{})
	if got := indexed(t, s); !slices.Equal(got, []string{indexKey("outcome", "key01")}) {
		t.Fatalf("indexed %q, want only outcome/key01", got)
	}
	if st := s.Stats(); st.RecoveredRecords != 4 || st.TruncatedBytes != 0 {
		t.Fatalf("stats %+v: the foreign records must replay as dead, not as a torn tail", st)
	}
	var v map[string]any
	if ok, err := s.Get("outcome", "key00", &v); ok || err != nil {
		t.Fatalf("Get(key00) = %t, %v; want a miss", ok, err)
	}
	if err := s.Delete("outcome", "key00"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(outside); err != nil {
		t.Fatalf("file outside the store: %v", err)
	}
}

// FuzzJournalReplay opens a store over an arbitrary journal: no input may
// panic, every indexed object must lie under objects/, and reopening must
// index the same keys.
func FuzzJournalReplay(f *testing.F) {
	escape := putRec("outcome", "key00")
	escape.File = filepath.Join("..", "x.json")
	f.Add([]byte{})
	f.Add([]byte("not a journal"))
	f.Add(frames(f, putRec("outcome", "key00"), putRec("outcome", "key01")))
	f.Add(frames(f, escape, putRec("outcome", "key01")))
	f.Add(frames(f, putRec("outcome", "key00"), journalRec{Op: opDel, Kind: "outcome", Key: "key00"}, putRec("outcome", "key01")))
	f.Add(frames(f, journalRec{Op: "put", Kind: "outcome", Key: "key01", File: objectPath("outcome", "key01"), Size: -5}))
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir, outside := replayFixture(t, journal)
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		first := indexed(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		second := indexed(t, s)
		s.Close()
		if !slices.Equal(first, second) {
			t.Fatalf("reopen indexed %q, first open %q", second, first)
		}
		if _, err := os.Stat(outside); err != nil {
			t.Fatalf("file outside the store: %v", err)
		}
	})
}
