package segment

import (
	"fmt"
	"os"
	"path/filepath"
)

// The template registry maps each compact record's TemplateIdx back to a
// SQL template, so it must survive restarts for persisted records to stay
// meaningful. It is persisted as a snapshot file plus an append-only delta
// log of entries interned since the snapshot:
//
//	registry.snap:  magic "PSEGREG1" | entry frames (atomic rewrite)
//	registry.delta: magic "PSEGREG1" | entry frames (appended, torn tail
//	                truncated at Open)
//
// Open replays snapshot then delta; Close folds the delta back into a
// fresh snapshot.

// RegistryEntry is one persisted template-registry row. Index is the dense
// index recorded in logstore.Record.TemplateIdx; entries are persisted in
// index order starting at 0.
type RegistryEntry struct {
	Index int32
	ID    string
	Text  string
	Table string
	Kind  int32
}

func (s *Store) snapPath() string  { return filepath.Join(s.dir, "registry.snap") }
func (s *Store) deltaPath() string { return filepath.Join(s.dir, "registry.delta") }

// openRegistry loads the snapshot and delta logs and leaves the delta file
// open for appends, with any torn tail truncated.
func (s *Store) openRegistry() error {
	if data, err := os.ReadFile(s.snapPath()); err == nil {
		entries, _, rerr := decodeRegistryFrames(data)
		if rerr != nil {
			return fmt.Errorf("segment: registry snapshot: %w", rerr)
		}
		s.regEntries = entries
	} else if !os.IsNotExist(err) {
		return err
	}

	f, err := os.OpenFile(s.deltaPath(), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(s.deltaPath())
	if err != nil {
		f.Close()
		return err
	}
	good := len(regMagic)
	if len(data) < good || string(data[:good]) != regMagic {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return err
		}
		if _, err := f.WriteAt([]byte(regMagic), 0); err != nil {
			f.Close()
			return err
		}
	} else {
		entries, clean, _ := decodeRegistryFrames(data)
		// A crash between the snapshot rename and the delta truncate in
		// snapshotRegistryLocked leaves the snapshot's entries duplicated
		// at the head of the delta: verify that prefix against the
		// snapshot and skip it, so replay is idempotent.
		covered := 0
		for covered < len(entries) && int(entries[covered].Index) < len(s.regEntries) {
			if entries[covered] != s.regEntries[entries[covered].Index] {
				f.Close()
				return fmt.Errorf("segment: registry delta entry %d disagrees with snapshot", entries[covered].Index)
			}
			covered++
		}
		// The delta's torn tail (a crash mid-append) is dropped; every
		// intact entry before it survives.
		s.regEntries = append(s.regEntries, entries[covered:]...)
		good = clean
		if covered == len(entries) && covered > 0 {
			// The snapshot covers the whole delta: complete the
			// interrupted truncate.
			good = len(regMagic)
		}
		if good < len(data) {
			if err := f.Truncate(int64(good)); err != nil {
				f.Close()
				return err
			}
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return err
	}
	s.regDelta = f
	return s.validateRegistry()
}

// validateRegistry checks the dense-index invariant after replay.
func (s *Store) validateRegistry() error {
	for i, e := range s.regEntries {
		if int(e.Index) != i {
			return fmt.Errorf("segment: registry entry %d has index %d (snapshot/delta mismatch)", i, e.Index)
		}
	}
	return nil
}

// decodeRegistryFrames decodes magic-prefixed entry frames, returning the
// intact entries and the clean byte length.
func decodeRegistryFrames(data []byte) ([]RegistryEntry, int, error) {
	if len(data) < len(regMagic) || string(data[:len(regMagic)]) != regMagic {
		return nil, 0, fmt.Errorf("bad magic")
	}
	var entries []RegistryEntry
	off := len(regMagic)
	for off < len(data) {
		payload, next, err := nextFrame(data, off)
		if err != nil {
			return entries, off, err
		}
		e, derr := decodeRegistryEntry(payload)
		if derr != nil {
			return entries, off, derr
		}
		entries = append(entries, e)
		off = next
	}
	return entries, off, nil
}

// RegistryEntries returns the persisted template-registry rows in dense
// index order, as recovered at Open plus any appended since.
func (s *Store) RegistryEntries() []RegistryEntry {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	out := make([]RegistryEntry, len(s.regEntries))
	copy(out, s.regEntries)
	return out
}

// AppendRegistry durably appends one newly interned template to the delta
// log. Entries must arrive in dense index order. It takes only the
// registry lock, never the record lock, so it is safe to call from a
// collect.Registry intern hook even while a scan is in progress. A write
// error is the store's sticky error: its next record append is refused.
func (s *Store) AppendRegistry(e RegistryEntry) error {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.regClosed {
		return os.ErrClosed
	}
	if int(e.Index) != len(s.regEntries) {
		return fmt.Errorf("segment: registry append index %d, want %d", e.Index, len(s.regEntries))
	}
	buf := appendFrame(nil, appendRegistryEntry(nil, e))
	if s.regDelta != nil {
		if _, err := s.regDelta.Write(buf); err != nil {
			s.fail(err)
			return err
		}
		// Records referencing this template must never outlive it: under a
		// periodic-fsync policy the registry syncs eagerly (interning is
		// rare after warm-up).
		if s.opt.SyncEvery > 0 {
			if err := s.regDelta.Sync(); err != nil {
				s.fail(err)
				return err
			}
		}
	}
	s.regEntries = append(s.regEntries, e)
	return nil
}

// snapshotRegistryLocked folds the delta log into a fresh atomic snapshot;
// Close calls it. Callers hold s.regMu.
func (s *Store) snapshotRegistryLocked() error {
	buf := []byte(regMagic)
	var payload []byte
	for _, e := range s.regEntries {
		payload = appendRegistryEntry(payload[:0], e)
		buf = appendFrame(buf, payload)
	}
	// The snapshot is fsynced before the rename, and the delta truncated
	// only after it: a crash at any point leaves either the old
	// snapshot + full delta or the new snapshot + a delta whose entries
	// it covers — both states openRegistry recovers from.
	if err := writeFileAtomic(s.snapPath(), buf); err != nil {
		return err
	}
	if s.regDelta != nil {
		if err := s.regDelta.Truncate(int64(len(regMagic))); err != nil {
			return err
		}
		if _, err := s.regDelta.Seek(int64(len(regMagic)), 0); err != nil {
			return err
		}
	}
	syncDir(s.dir)
	return nil
}
