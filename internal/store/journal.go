package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"stopwatchsim/internal/fault"
)

// The journal is the store's append-only index: one checksummed record per
// mutation. Each record is framed as
//
//	[4 bytes big-endian payload length][4 bytes CRC-32 (IEEE) of payload][payload JSON]
//
// and fsynced after every append. Because appends are the only writes, a
// crash can corrupt at most the final record; recovery reads records until
// the first short read, oversized length, or checksum mismatch and
// truncates the file there, so the journal is always a prefix of fully
// acknowledged mutations.

// Journal operations.
const (
	opPut = "put"
	opDel = "del"
)

// maxRecordLen bounds a record payload; a larger length field is treated
// as a torn tail rather than an allocation request.
const maxRecordLen = 1 << 20

// journalRec is the JSON payload of one journal record.
type journalRec struct {
	Op   string `json:"op"`
	Kind string `json:"kind"`
	Key  string `json:"key"`
	File string `json:"file,omitempty"`
	Size int64  `json:"size,omitempty"`
}

// appendRecord frames, appends and fsyncs one record. Callers hold s.mu.
//
// A failed append must not poison the journal: whatever bytes the failure
// left behind sit past goodEnd, and if a later append were written after
// them the torn frame would be buried mid-file — replay stops at the
// first bad frame, so everything appended afterwards would silently
// vanish on the next open. Instead the tail is rolled back to goodEnd
// (self-repair) before the journal is used again.
func (s *Store) appendRecord(rec journalRec) error {
	if s.badTail {
		if err := s.repairTailLocked(); err != nil {
			return fmt.Errorf("store: journal tail unrepaired: %w", err)
		}
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding journal record: %w", err)
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	frame := append(hdr[:], payload...)
	if f := s.opts.Faults.Hit(fault.SiteStoreJournalAppend); f != nil {
		if f.Kind == fault.KindShortWrite {
			// Simulate a torn append: half the frame reaches the file.
			s.journal.Write(frame[:len(frame)/2])
		}
		s.failTailLocked()
		return fmt.Errorf("store: appending journal record: %w", f.Err())
	}
	if _, err := s.journal.Write(frame); err != nil {
		s.failTailLocked()
		return fmt.Errorf("store: appending journal record: %w", err)
	}
	serr := s.opts.Faults.Fail(fault.SiteStoreJournalSync)
	if serr == nil {
		serr = s.journal.Sync()
	}
	if serr != nil {
		// The frame may or may not have reached disk; since the caller will
		// not apply the mutation, roll the file back to the last
		// acknowledged record so append and index stay in step.
		s.failTailLocked()
		return fmt.Errorf("store: syncing journal: %w", serr)
	}
	s.goodEnd += int64(len(frame))
	return nil
}

// failTailLocked marks the journal tail torn and attempts an immediate
// in-place repair. If the repair itself fails the flag stays set and the
// next append retries it before writing anything.
func (s *Store) failTailLocked() {
	s.badTail = true
	s.repairTailLocked()
}

// repairTailLocked rolls the journal back to the last acknowledged
// record: truncate to goodEnd, reposition the write offset, and fsync so
// the rollback is durable. Callers hold s.mu.
func (s *Store) repairTailLocked() error {
	if err := s.journal.Truncate(s.goodEnd); err != nil {
		return fmt.Errorf("truncating to %d: %w", s.goodEnd, err)
	}
	if _, err := s.journal.Seek(s.goodEnd, io.SeekStart); err != nil {
		return fmt.Errorf("seeking to %d: %w", s.goodEnd, err)
	}
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("syncing repaired journal: %w", err)
	}
	s.badTail = false
	s.stats.JournalRepairs++
	return nil
}

// recover replays the journal into the in-memory index, truncating any
// torn tail, dropping entries whose object file is missing, sweeping
// orphaned object files, and compacting the journal when dead records
// outnumber live ones.
func (s *Store) recover() error {
	path := filepath.Join(s.dir, journalName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening journal: %w", err)
	}
	s.journal = f

	good, err := s.replay(f)
	if err != nil {
		f.Close()
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: stat journal: %w", err)
	}
	if fi.Size() > good {
		// Torn tail: drop the partial record so the next append starts at
		// a clean frame boundary.
		s.stats.TruncatedBytes = fi.Size() - good
		if err := f.Truncate(good); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating torn journal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: syncing truncated journal: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("store: seeking journal end: %w", err)
	}
	s.goodEnd = good

	s.reconcile()
	s.sweepOrphans()

	if s.dead > s.live && s.dead > 64 {
		// Compaction is an optimization; if it fails (a dying disk, or fault
		// injection at the journal sites) the uncompacted journal is still a
		// valid prefix of acknowledged mutations, so open anyway.
		s.compact()
	}
	return nil
}

// replay reads records from the journal into the index and returns the
// offset of the last fully valid record. Truncation decisions are the
// caller's; replay never fails on a torn tail.
func (s *Store) replay(f *os.File) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("store: seeking journal: %w", err)
	}
	r := newByteCounter(f)
	var good int64
	var hdr [8]byte
	for {
		if err := s.opts.Faults.Fail(fault.SiteStoreRecoveryRead); err != nil {
			// An I/O error is not a torn tail: truncating here would discard
			// acknowledged records, so refuse to open instead.
			return good, fmt.Errorf("store: reading journal during recovery: %w", err)
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return good, nil // clean EOF or torn header: stop at last good record
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if n > maxRecordLen {
			return good, nil // absurd length: torn tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return good, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return good, nil // checksum mismatch: corrupt tail
		}
		var rec journalRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			return good, nil // framing valid but payload not ours: treat as corrupt tail
		}
		good = r.n
		s.stats.RecoveredRecords++
		s.applyRecord(rec)
	}
}

// applyRecord folds one replayed record into the index. A put is trusted
// only in the shape Put writes it — valid kind and key, the object path
// derived from them, a non-negative size — so a tampered or partially
// restored journal can never point the store outside its objects
// directory; anything else counts as dead, like an unknown op.
func (s *Store) applyRecord(rec journalRec) {
	ik := indexKey(rec.Kind, rec.Key)
	switch rec.Op {
	case opPut:
		if !validKey(rec.Kind) || !validKey(rec.Key) || rec.File != objectPath(rec.Kind, rec.Key) || rec.Size < 0 {
			s.dead++
			return
		}
		if old := s.index[ik]; old != nil {
			s.accountRemove(old)
			s.order.Remove(old.elem)
			s.dead++
			s.live--
		}
		e := &entry{kind: rec.Kind, key: rec.Key, file: rec.File, size: rec.Size, pinned: s.pinned(rec.Kind)}
		e.elem = s.order.PushBack(e)
		s.index[ik] = e
		s.accountAdd(e)
		s.live++
	case opDel:
		if e := s.index[ik]; e != nil {
			delete(s.index, ik)
			s.order.Remove(e.elem)
			s.accountRemove(e)
			s.dead += 2
			s.live--
		} else {
			s.dead++
		}
	default:
		s.dead++ // unknown op from a future version: ignore but count as garbage
	}
}

// reconcile drops index entries whose object file is missing — the journal
// record survived a crash that the (earlier) object write did not reach
// disk for, which cannot happen in the normal order but can after manual
// tampering or partial restores.
func (s *Store) reconcile() {
	for ik, e := range s.index {
		if _, err := os.Stat(filepath.Join(s.dir, e.file)); err != nil {
			delete(s.index, ik)
			s.order.Remove(e.elem)
			s.accountRemove(e)
			s.dead++
			s.live--
			s.stats.DroppedEntries++
		}
	}
}

// sweepOrphans removes object files (and stray temp files) not referenced
// by the index: the residue of a crash between the object write and its
// journal append.
func (s *Store) sweepOrphans() {
	referenced := make(map[string]bool, len(s.index))
	for _, e := range s.index {
		referenced[filepath.Join(s.dir, e.file)] = true
	}
	root := filepath.Join(s.dir, objectsDir)
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if !referenced[path] {
			if os.Remove(path) == nil {
				s.stats.OrphansSwept++
			}
		}
		return nil
	})
}

// compact rewrites the journal to contain exactly the live index, using
// the same atomic write-then-rename pattern as objects. Callers run it
// from Open only, before the store is visible to other goroutines.
func (s *Store) compact() error {
	tmpPath := filepath.Join(s.dir, journalName+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating compacted journal: %w", err)
	}
	old := s.journal
	oldGood := s.goodEnd
	s.journal = tmp
	s.goodEnd = 0
	restore := func() {
		tmp.Close()
		os.Remove(tmpPath)
		s.journal = old
		s.goodEnd = oldGood
		s.badTail = false // the torn tail (if any) died with the temp file
	}
	// Re-append every live record in age order; appendRecord syncs each,
	// which is acceptable at compaction frequency (once per open, at most).
	for el := s.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if err := s.appendRecord(journalRec{Op: opPut, Kind: e.kind, Key: e.key, File: e.file, Size: e.size}); err != nil {
			restore()
			return err
		}
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, journalName)); err != nil {
		restore()
		return fmt.Errorf("store: publishing compacted journal: %w", err)
	}
	old.Close()
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.dead = 0
	return nil
}

// byteCounter counts bytes consumed from the underlying reader so replay
// knows the offset of the last fully valid record.
type byteCounter struct {
	r io.Reader
	n int64
}

func newByteCounter(r io.Reader) *byteCounter { return &byteCounter{r: r} }

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}
