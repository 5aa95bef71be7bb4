package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"pinsql/internal/collect"
)

// journalEntry is one committed window in the fleet journal. The journal is
// shared by every instance of the fleet (one file per fleet — which under
// the shard manager means one file per shard), so each line carries the
// instance it belongs to. Within one instance the entries are strictly
// window-ordered; across instances they interleave in commit order.
//
// Templates are the templates the window interned first, in dense index
// order: a template becomes durable in the fsync that commits the first
// window whose records name it, so recovery never restores a template of a
// window it throws away, nor keeps a record whose template it lost.
type journalEntry struct {
	Instance  string                 `json:"instance"`
	Report    *WindowReport          `json:"report"`
	Templates []collect.TemplateMeta `json:"templates,omitempty"`
}

// history is one instance's committed state as the journal holds it: its
// windows in order, and the templates they interned in dense index order.
type history struct {
	reports   []*WindowReport
	templates []collect.TemplateMeta
}

// journalMaxLine bounds one journal line; a longer line fails the open.
const journalMaxLine = 1 << 24

// journal is the fleet's committed-window log with group commit: every
// Append is durable when it returns (the fsync is the commit point a
// restart counts), but concurrent appends from different instances are
// batched under one fsync — the first appender to reach the file becomes
// the batch leader, writes every pending entry, syncs once, and wakes the
// followers. A fleet draining W windows concurrently therefore pays
// ~W/batch fsyncs instead of W.
type journal struct {
	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	pending []byte // serialized entries awaiting the next batch write
	pendN   int    // entry count inside pending
	nextGen int64  // batch number the next leader will write
	synced  int64  // highest batch number made durable
	syncing bool   // a leader is between Write and Sync
	err     error  // sticky: first write/sync failure fails every later Append

	// Batch accounting for the pinsql_shard_commit_* metrics: windows/batches
	// is the mean commit batch size.
	batches atomic.Int64
	windows atomic.Int64
}

// openJournal loads the committed-window prefix of a fleet journal, split
// by instance. Every entry must belong to a known instance (windowMs maps
// instance ID to its window length) and continue that instance's
// contiguous window sequence; the scan stops at the first torn or
// out-of-sequence line (a crash mid-batch leaves a partial tail), truncates
// the file to the good prefix, and leaves it open for appends. Three cases
// fail the open instead and leave the file as it was, since discarding
// what follows them would destroy committed history: an entry for an
// unknown instance (the journal belongs to another fleet configuration),
// templates that do not continue their instance's dense index sequence
// (the journal was damaged), and a line the scan cannot read (too long, or
// a read error).
func openJournal(path string, windowMs map[string]int64) (*journal, map[string]history, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	byInst := make(map[string]history)
	good := int64(0)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), journalMaxLine)
	for sc.Scan() {
		line := sc.Bytes()
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Report == nil {
			break
		}
		wm, known := windowMs[e.Instance]
		if !known {
			f.Close()
			return nil, nil, fmt.Errorf("fleet: journal %s references unknown instance %q (fleet configuration changed?)", path, e.Instance)
		}
		h := byInst[e.Instance]
		w := len(h.reports)
		if e.Report.Window != w || e.Report.FromMs != int64(w)*wm || e.Report.ToMs != int64(w+1)*wm {
			break
		}
		for _, tpl := range e.Templates {
			if int(tpl.Index) != len(h.templates) {
				f.Close()
				return nil, nil, fmt.Errorf("fleet: journal %s: instance %q window %d journals template index %d, want %d", path, e.Instance, w, tpl.Index, len(h.templates))
			}
			h.templates = append(h.templates, tpl)
		}
		h.reports = append(h.reports, e.Report)
		byInst[e.Instance] = h
		good += int64(len(line)) + 1
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fleet: journal %s: reading after %d good bytes: %w", path, good, err)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	j := &journal{f: f, synced: -1}
	j.cond = sync.NewCond(&j.mu)
	return j, byInst, nil
}

// Append makes one committed window durable, with the templates it
// interned first. It returns only after an fsync covering the entry
// completed; entries appended concurrently ride the same batch and share
// that fsync.
func (j *journal) Append(id string, rep *WindowReport, templates []collect.TemplateMeta) error {
	line, err := json.Marshal(journalEntry{Instance: id, Report: rep, Templates: templates})
	if err != nil {
		return err
	}
	line = append(line, '\n')

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.pending = append(j.pending, line...)
	j.pendN++
	myGen := j.nextGen // the batch my entry will be written in
	for {
		if j.err != nil {
			return j.err
		}
		if j.synced >= myGen {
			return nil
		}
		if j.syncing {
			// A leader is mid-sync for an earlier batch; when it finishes it
			// broadcasts and a follower of the next batch takes over.
			j.cond.Wait()
			continue
		}
		// Become the batch leader: take everything pending (my entry plus any
		// followers that queued behind it), write and sync once.
		j.syncing = true
		buf, n, gen := j.pending, j.pendN, j.nextGen
		j.pending, j.pendN = nil, 0
		j.nextGen++
		j.mu.Unlock()
		_, werr := j.f.Write(buf)
		var serr error
		if werr == nil {
			serr = j.f.Sync()
		}
		j.mu.Lock()
		j.syncing = false
		switch {
		case werr != nil:
			j.err = werr
		case serr != nil:
			j.err = serr
		default:
			j.synced = gen
			j.batches.Add(1)
			j.windows.Add(int64(n))
		}
		j.cond.Broadcast()
	}
}

// Stats returns the batch accounting: total fsynced batches and total
// windows they covered (windows/batches = mean commit batch size).
func (j *journal) Stats() (batches, windows int64) {
	return j.batches.Load(), j.windows.Load()
}

// Close closes the file. Nothing is pending by construction (every Append
// returns only after its batch synced), so there is no final flush.
func (j *journal) Close() error {
	j.mu.Lock()
	if j.err == nil {
		j.err = os.ErrClosed
	}
	j.mu.Unlock()
	return j.f.Close()
}
