package sqltemplate

// The parent's normalizer, kept as the oracle for the one-pass renderer:
// tokenize into a fresh slice, collapse IN-lists over the slice, join with
// the spacing rule, hash the joined text. It shares only the leaf helpers
// (skipString, skipNumber, keywordToken, needsSpace, isComparisonPair) with
// the code under test; the tokenizer's dispatch, its look-behind rules, the
// letter test (unicode.IsLetter rather than a class table) and the IN-list
// scan (strings.EqualFold over a token slice rather than a state machine)
// are the old ones.

import (
	"hash/fnv"
	"strings"
	"unicode"
	"unicode/utf8"
)

func normalizeReference(sql string) string {
	tokens := refTokenize(sql)
	out := make([]string, 0, len(tokens))
	for i := 0; i < len(tokens); {
		if run := refInListRun(tokens, i); run > 0 {
			out = append(out, "IN", "(", Placeholder, ")")
			i += run
			continue
		}
		out = append(out, tokens[i])
		i++
	}
	var b strings.Builder
	for i, tok := range out {
		if i > 0 && needsSpace(out[i-1], tok) {
			b.WriteByte(' ')
		}
		b.WriteString(tok)
	}
	return b.String()
}

// fnvReference is hash/fnv's sum of the text, the definition HashID inlines.
func fnvReference(text string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(text))
	return h.Sum32()
}

func refTokenize(sql string) []string {
	var tokens []string
	i := 0
	n := len(sql)
	for i < n {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'' || c == '"':
			// String literal; honor backslash and doubled-quote escapes.
			i = skipString(sql, i)
			tokens = append(tokens, Placeholder)
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
				tokens = append(tokens, sql[i:j])
			} else {
				// Unterminated: close the quote ourselves, otherwise the
				// rendered template re-tokenizes differently (a following
				// backtick would pair with the dangling one across the
				// inserted space — found by FuzzNormalize).
				tokens = append(tokens, sql[i:j]+"`")
			}
			i = j
		case isDigit(c) && !refPrevIsDot(tokens):
			// Numeric literal (integer, decimal, scientific, hex).
			i = skipNumber(sql, i)
			tokens = append(tokens, Placeholder)
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
		case refIsIdentStart(c):
			j := i
			for j < n && refIsIdentPart(sql[j]) {
				j++
			}
			word := sql[i:j]
			if kw, ok := keywordToken(word); ok {
				tokens = append(tokens, kw)
			} else {
				tokens = append(tokens, word)
			}
			i = j
		case (c == '-' || c == '+') && i+1 < n && isDigit(sql[i+1]) && refStartsLiteralContext(tokens):
			// Signed numeric literal after an operator/comparison.
			i = skipNumber(sql, i+1)
			tokens = append(tokens, Placeholder)
		default:
			// Punctuation / operator, possibly multi-char (<=, >=, <>, !=).
			j := i + 1
			if j < n && isComparisonPair(sql[i], sql[j]) {
				j++
			}
			tokens = append(tokens, sql[i:j])
			i = j
		}
	}
	return tokens
}

// refInListRun reports the length in tokens of a collapsible
// "IN ( ? [, ?]... )" run starting at i, or 0 if tokens[i] does not start
// one.
func refInListRun(tokens []string, i int) int {
	if !strings.EqualFold(tokens[i], "IN") || i+2 >= len(tokens) || tokens[i+1] != "(" {
		return 0
	}
	j := i + 2
	for j < len(tokens) {
		if tokens[j] == ")" {
			if j > i+2 {
				return j + 1 - i
			}
			return 0
		}
		if tokens[j] != Placeholder && tokens[j] != "," {
			return 0
		}
		j++
	}
	return 0
}

func refPrevIsDot(tokens []string) bool {
	return len(tokens) > 0 && tokens[len(tokens)-1] == "."
}

func refStartsLiteralContext(tokens []string) bool {
	if len(tokens) == 0 {
		return true
	}
	switch tokens[len(tokens)-1] {
	case "=", "<", ">", "<=", ">=", "<>", "!=", "(", ",", "+", "-", "*", "/":
		return true
	}
	return false
}

func refIsIdentStart(c byte) bool {
	return c == '_' || c == '$' || c >= utf8.RuneSelf || unicode.IsLetter(rune(c))
}
func refIsIdentPart(c byte) bool { return refIsIdentStart(c) || isDigit(c) }
