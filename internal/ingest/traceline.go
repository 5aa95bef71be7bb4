package ingest

import (
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"pinsql/internal/dbsim"
)

// traceEvent is one decoded event line: a record or a metric row.
type traceEvent struct {
	isRec bool
	rec   dbsim.LogRecord
	met   dbsim.SecondMetrics
}

// decodeTraceLine is the fast path of the trace reader. It accepts exactly
// the byte shape WriteTrace emits for an event line — the two objects
//
//	{"t":"r","rec":{"TemplateID":s,"SQL":s,"Table":s,"Kind":i,"ArrivalMs":i,"ResponseMs":f,"ExaminedRows":i,"Throttled":b,"TimedOut":b,"LockWaitMs":f}}
//	{"t":"m","met":{"Second":i,"ActiveSession":f,"SampleOffsetMs":i,"AvgActiveSession":f,"CPUUsage":f,"IOPSUsage":f,"MemUsage":f,"QPS":i,"RowLockWaits":i,"MDLWaits":i,"LockTimeouts":i}}
//
// with these keys, in this order, no whitespace and nothing after the
// closing brace; s a JSON string (every escape, invalid UTF-8 coerced the
// way encoding/json coerces it), i an integer literal without fraction or
// exponent that fits its field, f a JSON number in float64 range, b true or
// false — and decodes it to what json.Unmarshal into traceLine yields. For
// any other line it reports false and the caller hands the line, unchanged,
// to encoding/json, which stays the definition of the format; ev may then
// be partly overwritten. FuzzTraceLine pins the two to each other.
//
// A record's TemplateID and Table come out of st's name table: one string per
// distinct value, so a consumer that recognises storage (the collector's
// identity table) does, and a record costs no allocation for them.
func decodeTraceLine(b []byte, ev *traceEvent, st *lineState) bool {
	d := lineDecoder{b: b, ok: true, st: st}
	switch {
	case d.lit(`{"t":"r","rec":{"TemplateID":`):
		r := &ev.rec
		ev.isRec = true
		r.TemplateID = st.name(d.str())
		d.lit(`,"SQL":`)
		r.SQL = string(d.str())
		d.lit(`,"Table":`)
		r.Table = st.name(d.str())
		d.lit(`,"Kind":`)
		r.Kind = dbsim.QueryKind(d.intField())
		d.lit(`,"ArrivalMs":`)
		r.ArrivalMs = d.int()
		d.lit(`,"ResponseMs":`)
		r.ResponseMs = d.float()
		d.lit(`,"ExaminedRows":`)
		r.ExaminedRows = d.int()
		d.lit(`,"Throttled":`)
		r.Throttled = d.bool()
		d.lit(`,"TimedOut":`)
		r.TimedOut = d.bool()
		d.lit(`,"LockWaitMs":`)
		r.LockWaitMs = d.float()
	case d.reset().lit(`{"t":"m","met":{"Second":`):
		m := &ev.met
		ev.isRec = false
		m.Second = d.int()
		d.lit(`,"ActiveSession":`)
		m.ActiveSession = d.float()
		d.lit(`,"SampleOffsetMs":`)
		m.SampleOffsetMs = d.intField()
		d.lit(`,"AvgActiveSession":`)
		m.AvgActiveSession = d.float()
		d.lit(`,"CPUUsage":`)
		m.CPUUsage = d.float()
		d.lit(`,"IOPSUsage":`)
		m.IOPSUsage = d.float()
		d.lit(`,"MemUsage":`)
		m.MemUsage = d.float()
		d.lit(`,"QPS":`)
		m.QPS = d.intField()
		d.lit(`,"RowLockWaits":`)
		m.RowLockWaits = d.intField()
		d.lit(`,"MDLWaits":`)
		m.MDLWaits = d.intField()
		d.lit(`,"LockTimeouts":`)
		m.LockTimeouts = d.intField()
	default:
		return false
	}
	d.lit(`}}`)
	return d.ok && d.i == len(d.b)
}

// lineState is what a source's line decodes share.
type lineState struct {
	scratch []byte            // unescape buffer, reused across strings
	names   map[string]string // a TemplateID or Table value → its one string
}

// The name table keeps at most maxNames values of at most maxNameLen bytes;
// any other is a string of its own, as every one was.
const (
	maxNames   = 4096
	maxNameLen = 64
)

// name returns raw as a string: the table's, if it has or can take one.
func (st *lineState) name(raw []byte) string {
	if len(raw) == 0 || len(raw) > maxNameLen {
		return string(raw)
	}
	if s, ok := st.names[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if len(st.names) < maxNames {
		if st.names == nil {
			st.names = make(map[string]string)
		}
		st.names[s] = s
	}
	return s
}

// lineDecoder is a cursor over one line. A failed step clears ok and every
// later step is a no-op, so a decode reads as the line's grammar and is
// checked once at the end.
type lineDecoder struct {
	b  []byte
	i  int
	ok bool
	st *lineState
}

func (d *lineDecoder) reset() *lineDecoder {
	d.i, d.ok = 0, true
	return d
}

// fail refuses the line.
func (d *lineDecoder) fail() []byte {
	d.ok = false
	return nil
}

// lit consumes the literal s.
func (d *lineDecoder) lit(s string) bool {
	if !d.ok || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		d.ok = false
		return false
	}
	d.i += len(s)
	return true
}

// bool consumes true or false.
func (d *lineDecoder) bool() bool {
	if d.ok && d.i < len(d.b) && d.b[d.i] == 't' {
		return d.lit("true")
	}
	d.lit("false")
	return false
}

// int consumes a JSON number with neither fraction nor exponent, of at most
// 18 digits (so it cannot overflow); longer ones are encoding/json's.
func (d *lineDecoder) int() int64 {
	if !d.ok {
		return 0
	}
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for i < len(b) && b[i]-'0' <= 9 {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	n := i - start
	if n == 0 || n > 18 || (n > 1 && b[start] == '0') ||
		(i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E')) {
		d.ok = false
		return 0
	}
	d.i = i
	if neg {
		return -v
	}
	return v
}

// intField is int for a field of Go type int.
func (d *lineDecoder) intField() int {
	v := d.int()
	if int64(int(v)) != v {
		d.ok = false
	}
	return int(v)
}

// float consumes a number of JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts it the way
// encoding/json does, with strconv.ParseFloat; a literal out of float64
// range is a type error there and a refusal here.
func (d *lineDecoder) float() float64 {
	if !d.ok {
		return 0
	}
	b, i := d.b, d.i
	digits := func() int {
		start := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		return i - start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	intStart := i
	n := digits()
	bad := n == 0 || n > 1 && b[intStart] == '0'
	if i < len(b) && b[i] == '.' {
		i++
		bad = bad || digits() == 0
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		bad = bad || digits() == 0
	}
	if bad {
		d.ok = false
		return 0
	}
	lit := b[d.i:i]
	d.i = i
	f, ok := parseFloat(lit)
	if !ok {
		d.ok = false
	}
	return f
}

// parseFloat is strconv.ParseFloat(string(b), 64), with the literals log
// files are made of converted in place.
func parseFloat(b []byte) (float64, bool) {
	if f, ok := parseDecimal(b); ok {
		return f, true
	}
	f, err := strconv.ParseFloat(string(b), 64)
	return f, err == nil
}

var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseDecimal converts digits[.digits] of at most 15 significant digits
// and 22 fractional ones: the digits as an integer and the power of ten are
// both exact float64s, so their quotient is the correctly rounded value —
// the division strconv's exact path performs. ok is false for anything
// else, and the caller asks strconv.
func parseDecimal(b []byte) (f float64, ok bool) {
	var mant uint64
	frac, dot := 0, -1
	for i, c := range b {
		switch {
		case c-'0' <= 9:
			if mant = mant*10 + uint64(c-'0'); mant >= 1e15 {
				return 0, false
			}
			if dot >= 0 {
				frac++
			}
		case c == '.' && dot < 0 && i > 0:
			dot = i
		default:
			return 0, false
		}
	}
	if len(b) == 0 || dot == len(b)-1 || frac >= len(pow10) {
		return 0, false
	}
	return float64(mant) / pow10[frac], true
}

// str consumes a JSON string and returns its value as encoding/json
// decodes it: bytes of the line or of the unescape buffer, good until the
// next call.
func (d *lineDecoder) str() []byte {
	if !d.ok || d.i >= len(d.b) || d.b[d.i] != '"' {
		return d.fail()
	}
	b := d.b
	start := d.i + 1
	i := start
	for i < len(b) {
		c := b[i]
		if c == '"' {
			d.i = i + 1
			return b[start:i]
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	return d.strSlow(start, i)
}

// strSlow finishes str for a string with an escape, a control byte or a
// non-ASCII byte at b[i]: the loop of encoding/json's unquote, with the
// escapes its scanner rejects (\' and anything unknown) refused here too.
func (d *lineDecoder) strSlow(start, i int) []byte {
	b := d.b
	out := append(d.st.scratch[:0], b[start:i]...)
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			d.i = i + 1
			d.st.scratch = out
			return out
		case c < ' ':
			return d.fail()
		case c == '\\':
			i++
			if i >= len(b) {
				return d.fail()
			}
			switch b[i] {
			case '"', '\\', '/':
				out = append(out, b[i])
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(b[i+1:])
				if r < 0 {
					return d.fail()
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A valid pair is one rune; a lone half becomes U+FFFD
					// and whatever follows it is read on its own.
					r2 := rune(-1)
					if i+2 < len(b) && b[i+1] == '\\' && b[i+2] == 'u' {
						r2 = hex4(b[i+3:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						i += 6
						r = dec
					} else {
						r = utf8.RuneError
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				return d.fail()
			}
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r) // invalid bytes become U+FFFD
			i += size
		}
	}
	return d.fail() // unterminated
}

// hex4 decodes four hex digits at the start of b, -1 if there are not four.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
