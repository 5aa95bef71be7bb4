// Package sqltemplate turns raw SQL statements into SQL templates (digests):
// structurally identical statements with different literal values share one
// template (Definition II.3 of the paper). A template is identified by a
// short hex SQL ID, matching the query-log presentation in Fig. 1: the
// 32-bit FNV-1a sum of the normalized text as eight uppercase hex digits.
// Fingerprint computes that sum from the raw statement without building the
// text, so for every statement New(sql).ID == hex(Fingerprint(sql)).
package sqltemplate

import (
	"strings"
	"sync"
	"unicode/utf8"
)

// Placeholder is the token substituted for every literal value.
const Placeholder = "?"

// ID is the unique identifier of a SQL template, a short uppercase hex
// string such as "2304A84F".
type ID string

// Template is a normalized SQL statement plus its identity.
type Template struct {
	ID   ID     // hash of the normalized text
	Text string // normalized statement with literals replaced by '?'
}

// Normalize rewrites a SQL statement into its template text: string and
// numeric literals become '?', IN (...) lists collapse to IN (?), whitespace
// is squeezed, and keywords are uppercased outside of (former) literals.
// Normalization is idempotent: Normalize(Normalize(s)) == Normalize(s).
func Normalize(sql string) string {
	text, _ := render(sql)
	return text
}

// New builds the Template for a raw SQL statement.
func New(sql string) Template {
	text, sum := render(sql)
	return Template{ID: hexID(sum), Text: text}
}

// Fingerprint returns the FNV-1a sum of Normalize(sql) — the number whose
// hex form is the statement's template ID — without allocating.
func Fingerprint(sql string) uint32 {
	r := renderer{sum: fnvOffset}
	r.lex(sql)
	return r.sum
}

// HashID computes the SQL ID of already-normalized template text.
func HashID(normalized string) ID {
	return hexID(fnvFold(fnvOffset, normalized))
}

const (
	fnvOffset = 2166136261 // FNV-1a 32-bit offset basis
	fnvPrime  = 16777619
)

func fnvFold(sum uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		sum = (sum ^ uint32(s[i])) * fnvPrime
	}
	return sum
}

func hexID(sum uint32) ID {
	const hexdigits = "0123456789ABCDEF"
	var buf [8]byte
	for i := 7; i >= 0; i-- {
		buf[i] = hexdigits[sum&0xF]
		sum >>= 4
	}
	return ID(buf[:])
}

// textPool recycles render's text buffer, so normalization allocates only
// the returned string.
var textPool = sync.Pool{New: func() any { return new([]byte) }}

// render returns a statement's template text and its FNV-1a sum.
func render(sql string) (string, uint32) {
	buf := textPool.Get().(*[]byte)
	r := renderer{sum: fnvOffset, keep: true, text: (*buf)[:0]}
	r.lex(sql)
	text := string(r.text)
	*buf = r.text
	textPool.Put(buf)
	return text, r.sum
}

// renderer is the one pass over a statement: lex splits the raw text into
// normalized tokens and token renders each as it is found — spacing rule,
// IN-list collapse — folding the rendered bytes into sum, and keeping them
// in text when keep is set.
type renderer struct {
	sum  uint32
	prev string // last token rendered; "" before the first
	keep bool
	text []byte

	// IN-list collapse. A list is rendered as written while it is read;
	// when it closes having held only placeholders and commas, the
	// rendering is rewound to the mark taken after "IN (".
	list    int8
	markSum uint32
	markLen int
}

const (
	listNone    = iota
	listAfterIN // the last token was the keyword IN
	listOpen    // inside "IN (", only placeholders and commas so far
)

// Byte classes of the lexer. Every non-ASCII byte is part of an identifier,
// as MySQL does for unquoted identifiers: a multibyte UTF-8 rune must stay
// one token, or normalization would split it into invalid byte fragments
// (found by FuzzNormalize).
const (
	clSpace = 1 << iota
	clDigit
	clIdent // starts an identifier; clIdent|clDigit continues one
)

var classOf = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			t[c] = clSpace
		case c >= '0' && c <= '9':
			t[c] = clDigit
		case c == '_' || c == '$' || c >= utf8.RuneSelf || (c|0x20 >= 'a' && c|0x20 <= 'z'):
			t[c] = clIdent
		}
	}
	return t
}()

// lex renders the normalized tokens of sql: keywords/identifiers
// (uppercased keywords, identifiers preserved), literals (replaced by '?'),
// and punctuation.
func (r *renderer) lex(sql string) {
	n := len(sql)
	for i := 0; i < n; {
		c := sql[i]
		cl := classOf[c]
		switch {
		case cl == clIdent:
			j := i + 1
			for j < n && classOf[sql[j]]&(clIdent|clDigit) != 0 {
				j++
			}
			word := sql[i:j]
			if kw, ok := keywordToken(word); ok {
				word = kw
			}
			r.token(word)
			if word == "IN" { // any spelling of the keyword; an identifier never is
				r.list = listAfterIN
			}
			i = j
		case cl == clSpace:
			i++
		case c == '\'' || c == '"':
			// String literal; honor backslash and doubled-quote escapes.
			i = skipString(sql, i)
			r.token(Placeholder)
		case c == '`':
			// Quoted identifier: keep verbatim (case-sensitive). An
			// identifier cannot span lines, so an unterminated quote
			// ends at the line break.
			j := i + 1
			for j < n && sql[j] != '`' && sql[j] != '\n' && sql[j] != '\r' && sql[j] != '\t' {
				j++
			}
			if j < n && sql[j] == '`' {
				j++
				r.token(sql[i:j])
			} else {
				// Unterminated: close the quote ourselves, otherwise the
				// rendered template re-tokenizes differently (a following
				// backtick would pair with the dangling one across the
				// inserted space — found by FuzzNormalize).
				r.token(sql[i:j])
				r.write("`")
			}
			i = j
		case cl == clDigit && r.prev != ".":
			// Numeric literal (integer, decimal, scientific, hex). A digit
			// after a dot is a qualified name part and falls to punctuation.
			i = skipNumber(sql, i)
			r.token(Placeholder)
		case c == '-' && i+1 < n && sql[i+1] == '-':
			// Line comment: drop entirely.
			for i < n && sql[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && sql[i+1] == '*':
			// Block comment: drop entirely.
			j := i + 2
			for j+1 < n && !(sql[j] == '*' && sql[j+1] == '/') {
				j++
			}
			if j+1 < n {
				j += 2
			} else {
				j = n
			}
			i = j
		case (c == '-' || c == '+') && i+1 < n && isDigit(sql[i+1]) && startsLiteralContext(r.prev):
			// Signed numeric literal after an operator/comparison.
			i = skipNumber(sql, i+1)
			r.token(Placeholder)
		default:
			// Punctuation / operator, possibly multi-char (<=, >=, <>, !=).
			j := i + 1
			if j < n && isComparisonPair(sql[i], sql[j]) {
				j++
			}
			r.token(sql[i:j])
			i = j
		}
	}
}

// token renders one token, collapsing "IN ( ? , ? , ? )" to "IN (?)" so
// queries differing only in IN-list arity share a template. The list must
// be non-empty and hold only placeholders and commas.
func (r *renderer) token(tok string) {
	switch r.list {
	case listAfterIN:
		r.list = listNone
		if tok == "(" {
			r.emit(tok)
			r.list, r.markSum, r.markLen = listOpen, r.sum, len(r.text)
			return
		}
	case listOpen:
		if tok == Placeholder || tok == "," {
			break
		}
		r.list = listNone
		if tok == ")" && r.prev != "(" { // closed, and not empty
			r.sum, r.text, r.prev = r.markSum, r.text[:r.markLen], "("
			r.emit(Placeholder)
		}
	}
	r.emit(tok)
}

// emit writes a token after the separating space it needs, if any.
func (r *renderer) emit(tok string) {
	if r.prev != "" && needsSpace(r.prev, tok) {
		r.write(" ")
	}
	r.write(tok)
	r.prev = tok
}

func (r *renderer) write(s string) {
	r.sum = fnvFold(r.sum, s)
	if r.keep {
		r.text = append(r.text, s...)
	}
}

func skipString(sql string, i int) int {
	quote := sql[i]
	n := len(sql)
	j := i + 1
	for j < n {
		switch sql[j] {
		case '\\':
			j += 2
			continue
		case quote:
			if j+1 < n && sql[j+1] == quote { // doubled-quote escape
				j += 2
				continue
			}
			return j + 1
		}
		j++
	}
	return n
}

func skipNumber(sql string, i int) int {
	n := len(sql)
	j := i
	if j+1 < n && sql[j] == '0' && (sql[j+1] == 'x' || sql[j+1] == 'X') {
		j += 2
		for j < n && isHexDigit(sql[j]) {
			j++
		}
		return j
	}
	for j < n && (isDigit(sql[j]) || sql[j] == '.') {
		j++
	}
	if j < n && (sql[j] == 'e' || sql[j] == 'E') {
		k := j + 1
		if k < n && (sql[k] == '+' || sql[k] == '-') {
			k++
		}
		if k < n && isDigit(sql[k]) {
			for k < n && isDigit(sql[k]) {
				k++
			}
			j = k
		}
	}
	return j
}

// needsSpace decides whether two adjacent tokens need a separating space in
// the rendered template.
func needsSpace(prev, cur string) bool {
	if cur == "," || cur == ")" || cur == ";" {
		return false
	}
	if prev == "(" || prev == "." {
		return false
	}
	if cur == "." {
		return false
	}
	if cur == "(" {
		// Tight call syntax only after function names: COUNT(*), SUM(x).
		return !isFunctionName(prev)
	}
	return true
}

// funcNames is the set of SQL functions that render with a tight opening
// parenthesis: COUNT(*), SUM(x).
var funcNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"COALESCE": true, "IFNULL": true, "NOW": true, "DATE": true,
	"LENGTH": true, "LOWER": true, "UPPER": true, "SUBSTR": true,
	"CONCAT": true,
}

const maxFuncLen = len("COALESCE")

// isFunctionName reports whether tok is a SQL function that renders with a
// tight opening parenthesis. ASCII tokens are uppercased into a stack
// buffer so the per-token check in the render loop never allocates; rare
// non-ASCII tokens fall back to strings.ToUpper, which matches the
// Unicode case-folding the pre-pooling implementation applied.
func isFunctionName(tok string) bool {
	for i := 0; i < len(tok); i++ {
		if tok[i] >= utf8.RuneSelf {
			return funcNames[strings.ToUpper(tok)]
		}
	}
	if len(tok) > maxFuncLen {
		return false
	}
	var buf [maxFuncLen]byte
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return funcNames[string(buf[:len(tok)])]
}

// startsLiteralContext reports whether a sign after prev, the last token
// rendered, begins a numeric literal rather than a binary operator.
func startsLiteralContext(prev string) bool {
	switch prev {
	case "", "=", "<", ">", "<=", ">=", "<>", "!=", "(", ",", "+", "-", "*", "/":
		return true
	}
	return false
}

func isDigit(c byte) bool    { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool { return isDigit(c) || (c|0x20 >= 'a' && c|0x20 <= 'f') }

func isComparisonPair(a, b byte) bool {
	switch {
	case a == '<' && (b == '=' || b == '>'):
		return true
	case a == '>' && b == '=':
		return true
	case a == '!' && b == '=':
		return true
	case a == ':' && b == '=':
		return true
	}
	return false
}

// keywords is the set of SQL keywords uppercased during normalization. It
// intentionally covers the dialect the workload generator emits plus common
// MySQL DDL/DML; unlisted words are treated as identifiers and preserved.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "IN": true, "INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true, "JOIN": true, "INNER": true,
	"LEFT": true, "RIGHT": true, "OUTER": true, "ON": true, "GROUP": true,
	"BY": true, "ORDER": true, "HAVING": true, "LIMIT": true, "OFFSET": true,
	"AS": true, "DISTINCT": true, "COUNT": true, "SUM": true, "AVG": true,
	"MIN": true, "MAX": true, "LIKE": true, "BETWEEN": true, "IS": true,
	"NULL": true, "ASC": true, "DESC": true, "UNION": true, "ALL": true,
	"CREATE": true, "ALTER": true, "DROP": true, "TABLE": true, "INDEX": true,
	"ADD": true, "COLUMN": true, "PRIMARY": true, "KEY": true, "FOREIGN": true,
	"REFERENCES": true, "BEGIN": true, "COMMIT": true, "ROLLBACK": true,
	"FOR": true, "SHOW": true, "STATUS": true, "EXISTS": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "IF": true,
	"TRUNCATE": true, "REPLACE": true, "LOCK": true, "UNLOCK": true,
}

const (
	maxKeywordLen = len("REFERENCES")
	kwSlots       = 512 // sparse for ~80 keywords: most probes end at the first slot
)

// kwTable is the keyword set as an open-addressed table under kwHash, which
// reads three bytes of the word instead of hashing all of it: the lexer asks
// for every word of every statement, and a map probe per word was half of a
// Fingerprint call.
var kwTable = func() (t [kwSlots]string) {
	for k := range keywords {
		h := kwHash(k)
		for t[h] != "" {
			h = (h + 1) % kwSlots
		}
		t[h] = k
	}
	return t
}()

func kwHash[S string | []byte](up S) uint {
	n := uint(len(up))
	return (uint(up[0])*61 + uint(up[n/2])*17 + uint(up[n-1])*5 + n) % kwSlots
}

// keywordToken reports whether word is a SQL keyword and, if so, returns
// its canonical uppercase token. ASCII words (the only kind the workload
// emits) are uppercased into a stack buffer — zero allocations. Non-ASCII
// words fall back to strings.ToUpper before the lookup, preserving Unicode
// case folding (e.g. a dotless ı uppercases to ASCII I); the fallback must
// run before any length check because Unicode uppercasing can shrink byte
// length.
func keywordToken(word string) (string, bool) {
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			up := strings.ToUpper(word)
			return up, keywords[up]
		}
		if i < maxKeywordLen {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf[i] = c
		}
	}
	if len(word) == 0 || len(word) > maxKeywordLen {
		return "", false
	}
	up := buf[:len(word)]
	for h := kwHash(up); kwTable[h] != ""; h = (h + 1) % kwSlots {
		if kwTable[h] == string(up) {
			return kwTable[h], true
		}
	}
	return "", false
}
