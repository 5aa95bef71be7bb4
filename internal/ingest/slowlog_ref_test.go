package ingest

import (
	"bufio"
	"math"
	"strconv"
	"strings"

	"pinsql/internal/dbsim"
)

// refSlowLog is the slow-log parser as it was before it moved to the
// scanner's bytes: every line repaired and copied to a string, classified
// on a strings.ToLower copy, headers and statements split with
// strings.Fields. It is the oracle of FuzzSlowLogParser's differential
// case. The one intended difference is the case folding: ToLower/ToUpper
// fold İ, ı and ſ onto ASCII letters, the byte-level lexer does not.
type refSlowLog struct {
	hdrTimeMs, setTsMs      int64
	queryTimeMs, lockTimeMs float64
	rowsExam                int64
	hdrSeen                 bool
	sqlBuf                  []string

	recs         []dbsim.LogRecord
	stats        Stats
	fromMs, toMs int64
}

// parseRefSlowLog parses a whole input with the reference parser.
func parseRefSlowLog(input string) *refSlowLog {
	s := &refSlowLog{}
	sc := bufio.NewScanner(strings.NewReader(input))
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		s.consumeLine(strings.ToValidUTF8(sc.Text(), "�"))
	}
	if s.hdrSeen || len(s.sqlBuf) > 0 {
		s.stats.ParseErrors++
	}
	return s
}

func (s *refSlowLog) consumeLine(line string) {
	trimmed := strings.TrimSpace(line)
	interrupt := func() {
		if s.hdrSeen || len(s.sqlBuf) > 0 {
			s.stats.ParseErrors++
			s.resetEntry()
		}
	}
	switch {
	case strings.HasPrefix(trimmed, "# Time:"):
		interrupt()
		ts, err := parseSlowLogTime(strings.TrimSpace(trimmed[len("# Time:"):]))
		if err != nil {
			s.stats.ParseErrors++
			s.hdrTimeMs = 0
			return
		}
		s.hdrTimeMs = ts
	case strings.HasPrefix(trimmed, "# Query_time:"):
		interrupt()
		if !s.parseQueryTimeHeader(trimmed) {
			s.stats.ParseErrors++
			return
		}
		s.hdrSeen = true
	case strings.HasPrefix(trimmed, "#"):
	case trimmed == "":
	case refIsUseLine(trimmed):
	case strings.HasPrefix(strings.ToLower(trimmed), "set timestamp="):
		v := strings.TrimSuffix(strings.TrimSpace(trimmed[len("SET timestamp="):]), ";")
		sec, err := strconv.ParseFloat(v, 64)
		if err != nil || !refHeaderSeconds(sec) || sec == 0 {
			s.stats.ParseErrors++
			return
		}
		s.setTsMs = int64(sec * 1000)
	case refIsServerBanner(trimmed, len(s.sqlBuf) > 0):
		interrupt()
	default:
		s.sqlBuf = append(s.sqlBuf, line)
		if strings.HasSuffix(trimmed, ";") {
			s.finishEntry()
		}
	}
}

func (s *refSlowLog) finishEntry() {
	sql := strings.TrimSpace(strings.Join(s.sqlBuf, "\n"))
	sql = strings.TrimSuffix(sql, ";")
	if !(s.hdrSeen && sql != "" && (s.setTsMs > 0 || s.hdrTimeMs > 0)) {
		s.stats.ParseErrors++
		s.resetEntry()
		return
	}
	arrivalMs := s.setTsMs
	if arrivalMs <= 0 {
		arrivalMs = s.hdrTimeMs - int64(s.queryTimeMs)
	}
	rec := dbsim.LogRecord{
		SQL:          sql,
		Table:        refGuessTable(sql),
		Kind:         refGuessKind(sql),
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
	s.recs = append(s.recs, rec)
	s.resetEntry()
}

func (s *refSlowLog) resetEntry() {
	s.hdrSeen = false
	s.queryTimeMs, s.lockTimeMs, s.rowsExam = 0, 0, 0
	s.setTsMs = 0
	s.sqlBuf = s.sqlBuf[:0]
}

func (s *refSlowLog) parseQueryTimeHeader(line string) bool {
	fields := strings.Fields(line[1:]) // drop "#"
	var qt, lt float64
	var rows int64
	seenQT := false
	for i := 0; i+1 < len(fields); i++ {
		switch fields[i] {
		case "Query_time:":
			v, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil || !refHeaderSeconds(v) {
				return false
			}
			qt, seenQT = v, true
		case "Lock_time:":
			if v, err := strconv.ParseFloat(fields[i+1], 64); err == nil && refHeaderSeconds(v) {
				lt = v
			}
		case "Rows_examined:":
			if v, err := strconv.ParseInt(fields[i+1], 10, 64); err == nil && v >= 0 {
				rows = v
			}
		}
	}
	if !seenQT {
		return false
	}
	s.queryTimeMs = qt * 1000
	s.lockTimeMs = lt * 1000
	s.rowsExam = rows
	return true
}

// refHeaderSeconds is the range of a header's seconds field: finite, not
// negative, and at most what an int64 holds as milliseconds.
func refHeaderSeconds(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 && v*1000 < math.Exp2(63)
}

func refIsUseLine(trimmed string) bool {
	low := strings.ToLower(trimmed)
	return strings.HasPrefix(low, "use ") && strings.HasSuffix(low, ";") && !strings.ContainsAny(low, "()=")
}

func refIsServerBanner(trimmed string, inSQL bool) bool {
	if inSQL {
		return false
	}
	return strings.Contains(trimmed, ", Version: ") ||
		strings.HasPrefix(trimmed, "Tcp port:") ||
		strings.HasPrefix(trimmed, "Time ") && strings.Contains(trimmed, "Id Command")
}

func refGuessKind(sql string) dbsim.QueryKind {
	switch strings.ToUpper(firstWord(sql)) {
	case "SELECT", "SHOW", "WITH":
		return dbsim.KindSelect
	case "INSERT", "REPLACE":
		return dbsim.KindInsert
	case "UPDATE":
		return dbsim.KindUpdate
	case "DELETE":
		return dbsim.KindDelete
	case "ALTER", "CREATE", "DROP", "TRUNCATE", "RENAME", "OPTIMIZE":
		return dbsim.KindDDL
	}
	return dbsim.KindSelect
}

func refGuessTable(sql string) string {
	fields := strings.Fields(sql)
	for i, f := range fields {
		switch strings.ToUpper(strings.Trim(f, "(")) {
		case "FROM", "INTO", "JOIN", "TABLE":
			if i+1 < len(fields) {
				return cleanTableName(fields[i+1])
			}
		case "UPDATE":
			if i == 0 && len(fields) > 1 {
				return cleanTableName(fields[1])
			}
		}
	}
	return ""
}
