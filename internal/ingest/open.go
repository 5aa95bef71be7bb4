package ingest

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Format names for Open. FormatAuto guesses from the file extension
// (after stripping a trailing .gz).
const (
	FormatAuto       = ""
	FormatSlowLog    = "slowlog"
	FormatWaitEvents = "waitevents"
	FormatTrace      = "trace"
)

// OpenOptions configures the adapter stack Open builds.
type OpenOptions struct {
	// Speed paces the replay clock wrapped around slow-log and wait-event
	// sources (traces are already dense and skip it); see NewReplay.
	Speed float64
}

// Open opens a trace file and composes the full adapter stack for its
// format:
//
//	slowlog     SlowLogSource → Replay → SessionSynth
//	waitevents  WaitEventsSource → Replay
//	trace       TraceSource (already dense and rebased)
//
// Gzip compression is detected by content, independent of the name. The
// returned source owns the file handle; Close releases it.
func Open(path, format string, opt OpenOptions) (Source, error) {
	if format == FormatAuto {
		format = guessFormat(path)
		if format == FormatAuto {
			return nil, fmt.Errorf("ingest: cannot guess format of %q; pass slowlog, waitevents, or trace", path)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := openReader(f, format, opt)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &ownedSource{Source: src, closers: []io.Closer{f}}, nil
}

// openReader builds the adapter stack for format on top of r, sniffing
// gzip by magic bytes.
func openReader(r io.Reader, format string, opt OpenOptions) (Source, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("ingest: gzip: %w", err)
		}
		r = zr
	} else {
		r = br
	}
	switch format {
	case FormatSlowLog:
		return NewSessionSynth(NewReplay(SlowLog(r), opt.Speed)), nil
	case FormatWaitEvents:
		return NewReplay(NewWaitEventsSource(r), opt.Speed), nil
	case FormatTrace:
		return newTraceSource(r) // r is decompressed and buffered already
	default:
		return nil, fmt.Errorf("ingest: unknown format %q", format)
	}
}

// guessFormat maps a file name to a format, "" when unrecognized.
func guessFormat(path string) string {
	name := strings.ToLower(filepath.Base(path))
	name = strings.TrimSuffix(name, ".gz")
	switch filepath.Ext(name) {
	case ".trace", ".pinsql":
		return FormatTrace
	case ".jsonl", ".ndjson":
		return FormatWaitEvents
	case ".log", ".slow", ".txt":
		return FormatSlowLog
	}
	return FormatAuto
}

// ownedSource delegates to an adapter stack and additionally closes the
// underlying file(s).
type ownedSource struct {
	Source
	closers []io.Closer
}

func (o *ownedSource) Close() error {
	err := o.Source.Close()
	for _, c := range o.closers {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats implements Counting by delegation (interface embedding does not
// promote methods outside the embedded interface).
func (o *ownedSource) Stats() Stats {
	if c, ok := o.Source.(Counting); ok {
		return c.Stats()
	}
	return Stats{}
}
