package ingest

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"pinsql/internal/dbsim"
)

// SlowLogSource streams a MySQL slow query log into the Source seam. It
// is a raw adapter: batches come out keyed by each statement's emission
// second (the instant the server wrote the entry), grouped only when
// consecutive entries share a second — sparse, unrebased, and possibly
// locally out of order. Wrap it in Replay to get the dense contract the
// Player needs; Open does exactly that.
//
// Entry grammar handled (one scanner pass, bounded memory):
//
//	# Time: 2023-05-12T03:14:15.123456Z        (RFC 3339, any zone, or
//	# Time: 230512  3:14:15                     the legacy compact form)
//	# User@Host: app[app] @ host [10.0.0.3]
//	# Query_time: 1.234567  Lock_time: 0.000123 Rows_sent: 10 Rows_examined: 40000
//	use orders;
//	SET timestamp=1683861255;
//	SELECT ... multi-line ... ;
//
// `SET timestamp=` carries the statement's start time and wins over
// `# Time:`; without it the start is the header time minus Query_time
// (the header stamps the entry write, i.e. completion). Malformed input —
// torn entries, an interleaved header cutting a statement short, bad
// numbers or timestamps, a truncated tail — is counted in
// Stats.ParseErrors and skipped; the parser never stops early and never
// emits invalid UTF-8 (offending bytes become U+FFFD).
//
// Keyword matching — `use`, `SET timestamp=`, the leading verb that sets
// Kind and the FROM/INTO/JOIN/TABLE/UPDATE that precedes Table — is
// ASCII-case-insensitive: lines are classified on the scanner's bytes, not
// on a Unicode-lowered copy, so a letter that merely case-folds to an ASCII
// one (`İ` U+0130, `ı` U+0131, `ſ` U+017F) does not spell a keyword.
// `SET tİmestamp=1;` is statement text, not a malformed timestamp line.
//
// Records leave with TemplateID == "": template identity is assigned
// downstream by the collector registry's raw-SQL intern path, the same
// sqltemplate normalization every other input takes. Batches are read into
// two record buffers in turn, each overwritten the Next after its batch.
type SlowLogSource struct {
	sc  *bufio.Scanner
	err error

	// current header group
	hdrTimeMs   int64 // from "# Time:", ms since epoch; 0 = none
	setTsMs     int64 // from "SET timestamp=", ms since epoch; 0 = none
	queryTimeMs float64
	lockTimeMs  float64
	rowsExam    int64
	hdrSeen     bool   // a "# Query_time:" header opened an entry
	sqlBuf      []byte // the statement's raw lines so far, '\n'-joined

	pending []dbsim.LogRecord // completed records not yet batched
	spare   []dbsim.LogRecord // the storage of the batch last returned
	same    int               // pending[:same] share pending[0]'s emission second
	eof     bool

	stats  Stats
	fromMs int64 // best-effort bounds: first/last emission seen
	toMs   int64
}

// SlowLog creates a streaming parser over r (plain text; Open handles
// gzip). The returned source is sparse — wrap in Replay before playing.
func SlowLog(r io.Reader) *SlowLogSource {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes) // multi-megabyte statements
	return &SlowLogSource{sc: sc}
}

// Next implements Source: the next emission second's records. Batches are
// grouped per consecutive second of the input, not densified.
func (s *SlowLogSource) Next() (Batch, error) {
	for {
		// A batch is ready once a record lands in a later second than the
		// ones already pending (slow logs are written at completion, so
		// the stream is near-sorted; Replay absorbs the exceptions). same
		// remembers how far the equal-second prefix is verified, so each
		// pending record is looked at once, not once per completed entry.
		if n := len(s.pending); n > 0 {
			first := EmissionMs(s.pending[0]) / 1000
			for s.same = max(s.same, 1); s.same < n && EmissionMs(s.pending[s.same])/1000 == first; s.same++ {
			}
			if cut := s.same; cut < n || s.eof {
				// The records past the cut, the next second's first, move to
				// the spare buffer, which the batch returned before this one
				// no longer needs; the batch keeps the buffer it was read into.
				b := Batch{Second: first, Records: s.pending[:cut:cut]}
				s.pending, s.spare = append(s.spare[:0], s.pending[cut:]...), s.pending
				s.same = 0
				b.Last = s.eof && len(s.pending) == 0
				return b, nil
			}
		} else if s.eof {
			if s.err != nil {
				return Batch{}, s.err
			}
			return Batch{}, io.EOF
		}
		s.scanMore()
	}
}

// scanMore consumes input lines until a record completes or input ends.
func (s *SlowLogSource) scanMore() {
	for s.sc.Scan() {
		if s.consumeLine(s.sc.Bytes()) {
			return
		}
	}
	// EOF (or a read error): a half-built entry is a torn tail.
	if err := s.sc.Err(); err != nil {
		s.err = err
	}
	if s.hdrSeen || len(s.sqlBuf) > 0 {
		s.stats.ParseErrors++
		s.resetEntry()
	}
	s.eof = true
}

// consumeLine feeds one line — the scanner's bytes, valid only until the
// next Scan — into the entry state machine; it reports whether a record
// was completed. Invalid UTF-8 is left alone here: no keyword contains any,
// and statement text is repaired once, in finishEntry.
func (s *SlowLogSource) consumeLine(line []byte) bool {
	trimmed := bytes.TrimSpace(line)
	switch {
	case bytes.HasPrefix(trimmed, []byte("# Time:")):
		if s.hdrSeen || len(s.sqlBuf) > 0 {
			// A new entry interrupted an unterminated statement.
			s.stats.ParseErrors++
			s.resetEntry()
		}
		ts, ok := stampMs(bytes.TrimSpace(trimmed[len("# Time:"):]))
		if !ok {
			s.stats.ParseErrors++
			s.hdrTimeMs = 0
			return false
		}
		s.hdrTimeMs = ts
	case bytes.HasPrefix(trimmed, []byte("# Query_time:")):
		if s.hdrSeen || len(s.sqlBuf) > 0 {
			s.stats.ParseErrors++
			s.resetEntry()
		}
		if !s.parseQueryTimeHeader(trimmed) {
			s.stats.ParseErrors++
			return false
		}
		s.hdrSeen = true
	case bytes.HasPrefix(trimmed, []byte("#")):
		// User@Host and friends: metadata we don't need.
	case len(trimmed) == 0:
	case isUseLine(trimmed):
		// Schema switch; the statement text itself is what we normalize.
	case hasPrefixFold(trimmed, "set timestamp="):
		ts, ok := parseSetTimestamp(trimmed)
		if !ok {
			s.stats.ParseErrors++
			return false
		}
		s.setTsMs = ts
	case isServerBanner(trimmed, len(s.sqlBuf) > 0):
		// Restart banners interleave mid-file; they cut a pending
		// statement short.
		if s.hdrSeen || len(s.sqlBuf) > 0 {
			s.stats.ParseErrors++
			s.resetEntry()
		}
	default:
		if len(s.sqlBuf) > 0 {
			s.sqlBuf = append(s.sqlBuf, '\n')
		}
		s.sqlBuf = append(s.sqlBuf, line...)
		if trimmed[len(trimmed)-1] == ';' {
			return s.finishEntry()
		}
	}
	return false
}

// finishEntry turns the accumulated entry into a LogRecord; it reports
// whether one was emitted.
func (s *SlowLogSource) finishEntry() bool {
	// The statement's one string: valid UTF-8, the usual case, is trimmed
	// as bytes and copied once; anything else is repaired, then trimmed, as
	// when every line was repaired on its own.
	var sql string
	if utf8.Valid(s.sqlBuf) {
		sql = string(trimSemicolon(bytes.TrimSpace(s.sqlBuf)))
	} else {
		sql = strings.TrimSuffix(strings.TrimSpace(strings.ToValidUTF8(string(s.sqlBuf), "\uFFFD")), ";")
	}
	ok := s.hdrSeen && sql != "" && (s.setTsMs > 0 || s.hdrTimeMs > 0)
	if !ok {
		// Statement without a Query_time header (or headers without a
		// usable clock): not a slow-log entry we can place in time.
		s.stats.ParseErrors++
		s.resetEntry()
		return false
	}
	var arrivalMs int64
	if s.setTsMs > 0 {
		arrivalMs = s.setTsMs
	} else {
		arrivalMs = s.hdrTimeMs - int64(s.queryTimeMs)
	}
	rec := dbsim.LogRecord{
		SQL:          sql,
		Table:        guessTable(sql),
		Kind:         guessKind(sql),
		ArrivalMs:    arrivalMs,
		ResponseMs:   s.queryTimeMs,
		ExaminedRows: s.rowsExam,
		LockWaitMs:   s.lockTimeMs,
	}
	s.stats.Records++
	em := EmissionMs(rec)
	if s.fromMs == 0 || rec.ArrivalMs < s.fromMs {
		s.fromMs = rec.ArrivalMs
	}
	if em >= s.toMs {
		s.toMs = em + 1
	}
	s.pending = append(s.pending, rec)
	s.resetEntry()
	return true
}

func (s *SlowLogSource) resetEntry() {
	s.hdrSeen = false
	s.queryTimeMs, s.lockTimeMs, s.rowsExam = 0, 0, 0
	s.setTsMs = 0
	s.sqlBuf = s.sqlBuf[:0]
}

// parseQueryTimeHeader pulls the numeric fields out of a
// "# Query_time: ... Lock_time: ... Rows_examined: ..." line. Every
// whitespace-separated field is tried as a key with its successor as the
// value, so a value that is itself a key is read both ways.
func (s *SlowLogSource) parseQueryTimeHeader(line []byte) bool {
	var qtMs, ltMs float64
	var rows int64
	seenQT := false
	var key []byte
	for val := range bytes.FieldsSeq(line[1:]) { // drop "#"
		switch string(key) {
		case "Query_time:":
			ms, ok := headerMs(val)
			if !ok {
				return false
			}
			qtMs, seenQT = ms, true
		case "Lock_time:":
			if ms, ok := headerMs(val); ok {
				ltMs = ms
			}
		case "Rows_examined:":
			if v, err := strconv.ParseInt(string(val), 10, 64); err == nil && v >= 0 {
				rows = v
			}
		}
		key = val
	}
	if !seenQT {
		return false
	}
	s.queryTimeMs = qtMs
	s.lockTimeMs = ltMs
	s.rowsExam = rows
	return true
}

// headerMs parses a header's seconds field into milliseconds. It refuses
// what no server writes and arithmetic downstream cannot carry: a negative
// value, NaN, an infinity ("Inf" parses without error), and a finite value
// whose milliseconds do not fit an int64 — the arrival time subtracts them
// as one, and converting a float beyond the integer's range is
// implementation-defined.
func headerMs(field []byte) (ms float64, ok bool) {
	v, ok := parseFloat(field)
	if !ok {
		return 0, false
	}
	ms = v * 1000
	return ms, ms >= 0 && ms < 1<<63
}

// Bounds implements Source: best effort, the extent parsed so far.
func (s *SlowLogSource) Bounds() (int64, int64) { return s.fromMs, s.toMs }

// Stats implements Counting.
func (s *SlowLogSource) Stats() Stats { return s.stats }

// Close implements Source. The reader is owned by the caller (Open wraps
// sources with the file's closer).
func (s *SlowLogSource) Close() error { return nil }

// stampMs reads a "# Time:" payload into milliseconds since the epoch:
// rfc3339Ms, else parseSlowLogTime.
func stampMs(b []byte) (int64, bool) {
	if ms, ok := rfc3339Ms(b); ok {
		return ms, true
	}
	ms, err := parseSlowLogTime(string(b))
	return ms, err == nil
}

// rfc3339Ms reads the RFC 3339 stamp MySQL ≥ 5.7 writes —
// 2006-01-02T15:04:05, a fraction of any length, then Z or a ±hh:mm offset —
// from its bytes, as time.Parse's own RFC 3339 path reads it, without the
// string time.Parse needs (FuzzSlowLogStamp holds the two together). ok is
// false for anything else.
func rfc3339Ms(b []byte) (ms int64, ok bool) {
	ok = true
	num := func(d []byte, lo, hi int) int {
		x := 0
		for _, c := range d {
			if c-'0' > 9 {
				ok = false
				return lo
			}
			x = x*10 + int(c-'0')
		}
		if x < lo || x > hi {
			ok = false
			return lo
		}
		return x
	}
	if len(b) < len("2006-01-02T15:04:05Z") || b[4] != '-' || b[7] != '-' || b[10] != 'T' || b[13] != ':' || b[16] != ':' {
		return 0, false
	}
	year, month, day := num(b[0:4], 0, 9999), num(b[5:7], 1, 12), num(b[8:10], 1, 31)
	hour, minute, sec := num(b[11:13], 0, 23), num(b[14:16], 0, 59), num(b[17:19], 0, 59)
	rest := b[19:]
	frac := 0 // the fraction's milliseconds: its first three digits
	if len(rest) >= 2 && rest[0] == '.' && rest[1]-'0' <= 9 {
		n := 1
		for ; n < len(rest) && rest[n]-'0' <= 9; n++ {
			if n <= 3 {
				frac = frac*10 + int(rest[n]-'0')
			}
		}
		for i := n; i <= 3; i++ {
			frac *= 10
		}
		rest = rest[n:]
	}
	off := 0 // the zone's offset east of UTC, in seconds
	if len(rest) != 1 || rest[0] != 'Z' {
		if len(rest) != len("-07:00") || rest[0] != '+' && rest[0] != '-' || rest[3] != ':' {
			return 0, false
		}
		off = (num(rest[1:3], 0, 23)*60 + num(rest[4:6], 0, 59)) * 60
		if rest[0] == '-' {
			off = -off
		}
	}
	t := time.Date(year, time.Month(month), day, hour, minute, sec, 0, time.UTC)
	if !ok || t.Day() != day { // time.Date carries a day past the month's end into the next
		return 0, false
	}
	return (t.Unix()-int64(off))*1000 + int64(frac), true
}

// parseSlowLogTime parses the "# Time:" payload: RFC 3339 with any zone
// offset (MySQL ≥ 5.7 writes UTC or system time with offset), or the
// legacy compact "yymmdd h:mm:ss" form (naive, taken as UTC).
func parseSlowLogTime(v string) (int64, error) {
	if t, err := time.Parse(time.RFC3339Nano, v); err == nil {
		return t.UnixMilli(), nil
	}
	t, err := time.Parse("060102 15:04:05", strings.Join(strings.Fields(v), " "))
	if err != nil {
		return 0, err
	}
	return t.UTC().UnixMilli(), nil
}

func isUseLine(trimmed []byte) bool {
	return hasPrefixFold(trimmed, "use ") && trimmed[len(trimmed)-1] == ';' && !bytes.ContainsAny(trimmed, "()=")
}

// parseSetTimestamp reads a `SET timestamp=` line's epoch seconds into
// milliseconds. Like headerMs it refuses what no server writes and an int64
// cannot carry: zero or less, NaN, an infinity, and a value whose
// milliseconds overflow — converting such a float is implementation-defined.
func parseSetTimestamp(trimmed []byte) (int64, bool) {
	v := trimmed[len("SET timestamp="):]
	v = trimSemicolon(bytes.TrimSpace(v))
	// Fractional epochs appear with log_timestamps=SYSTEM on 8.0.
	sec, ok := parseFloat(v)
	ms := sec * 1000
	if !ok || !(ms > 0 && ms < 1<<63) {
		return 0, false
	}
	return int64(ms), true
}

// isServerBanner spots mysqld restart banners, which interleave with
// entries. inSQL guards against eating a statement line that merely
// mentions these words.
func isServerBanner(trimmed []byte, inSQL bool) bool {
	if inSQL {
		return false
	}
	return bytes.Contains(trimmed, []byte(", Version: ")) ||
		bytes.HasPrefix(trimmed, []byte("Tcp port:")) ||
		bytes.HasPrefix(trimmed, []byte("Time ")) && bytes.Contains(trimmed, []byte("Id Command"))
}

// kindOfVerb maps a statement's leading verb to its kind.
var kindOfVerb = []struct {
	verb string
	kind dbsim.QueryKind
}{
	{"select", dbsim.KindSelect}, {"show", dbsim.KindSelect}, {"with", dbsim.KindSelect},
	{"insert", dbsim.KindInsert}, {"replace", dbsim.KindInsert},
	{"update", dbsim.KindUpdate},
	{"delete", dbsim.KindDelete},
	{"alter", dbsim.KindDDL}, {"create", dbsim.KindDDL}, {"drop", dbsim.KindDDL},
	{"truncate", dbsim.KindDDL}, {"rename", dbsim.KindDDL}, {"optimize", dbsim.KindDDL},
}

// guessKind classifies a statement by its leading verb.
func guessKind(sql string) dbsim.QueryKind {
	word := firstWord(sql)
	for _, k := range kindOfVerb {
		if equalFold(word, k.verb) {
			return k.kind
		}
	}
	return dbsim.KindSelect
}

// guessTable extracts the first table name after FROM/INTO/UPDATE/JOIN —
// best effort, for report grouping only.
func guessTable(sql string) string {
	prev, n := "", 0
	for f := range strings.FieldsSeq(sql) {
		if kw := strings.Trim(prev, "("); n > 0 && (equalFold(kw, "from") || equalFold(kw, "into") ||
			equalFold(kw, "join") || equalFold(kw, "table") || n == 1 && equalFold(kw, "update")) {
			return cleanTableName(f)
		}
		prev, n = f, n+1
	}
	return ""
}

func cleanTableName(tok string) string {
	tok = strings.Trim(tok, "`\"'(),;")
	if i := strings.LastIndexByte(tok, '.'); i >= 0 {
		tok = tok[i+1:]
	}
	tok = strings.Trim(tok, "`\"'")
	if !utf8.ValidString(tok) || len(tok) > 64 {
		return ""
	}
	return tok
}

func firstWord(s string) string {
	s = strings.TrimSpace(s)
	for i, r := range s {
		if r == ' ' || r == '\t' || r == '\n' || r == '(' {
			return s[:i]
		}
	}
	return s
}

// trimSemicolon drops one trailing ';'.
func trimSemicolon(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == ';' {
		return b[:n-1]
	}
	return b
}

// hasPrefixFold is bytes.HasPrefix with ASCII case folding; lower is in
// lower case.
func hasPrefixFold(b []byte, lower string) bool {
	return len(b) >= len(lower) && equalFold(b[:len(lower)], lower)
}

// equalFold reports whether s is lower under ASCII case folding; lower is
// in lower case.
func equalFold[S string | []byte](s S, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(lower); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}
