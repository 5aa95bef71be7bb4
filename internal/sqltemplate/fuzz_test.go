package sqltemplate

// Native fuzzing for the SQL normalizer, the first code every logged
// statement passes through: it must never panic on hostile input, must be
// idempotent (a template is its own template), must keep the
// template → SQL ID mapping functional (equal template text, equal ID), and
// must name a template the same whether or not it builds the text
// (Fingerprint == FNV-1a of Normalize, ID == its hex).
//
// Run a longer campaign with: go test -fuzz=FuzzNormalize ./internal/sqltemplate
// (the Makefile's fuzz-smoke target runs a 10 s slice in CI).

import (
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"
)

func FuzzNormalize(f *testing.F) {
	seeds := []string{
		// Plain statements and literal kinds.
		"SELECT * FROM orders WHERE id = 42",
		"select name from users where age >= 18 and city = 'NY' limit 10",
		"INSERT INTO t (a, b) VALUES (1.5, -2)",
		"UPDATE t SET x = 0x1F, y = 1e-9 WHERE z IN (1, 2, 3)",
		"SELECT * FROM t WHERE price > -3.25e+10",
		// Quoted strings with escapes.
		`SELECT * FROM t WHERE s = 'it''s fine'`,
		`SELECT * FROM t WHERE s = 'back\'slash' AND r = "dq\"uote"`,
		`SELECT * FROM t WHERE s = 'unterminated`,
		"SELECT `weird ident` FROM `a b`",
		// Comments and operators.
		"SELECT 1 -- trailing comment",
		"SELECT /* block */ 1 /* unterminated",
		"SELECT a FROM t WHERE b <> 1 AND c != 2 AND d <= 3",
		// Collapsing IN lists.
		"DELETE FROM t WHERE id IN (1, 2, 3, 4, 5)",
		"SELECT * FROM t WHERE id IN (SELECT id FROM u)",
		// Multibyte input.
		"SELECT * FROM 用户 WHERE 名字 = '张三'",
		"SELECT 'héllo wörld' FROM t WHERE e = '😀'",
		// Degenerates.
		"", " ", "''", "`", "--", "/*", "?", "IN (", "0x", "1.2.3.4",
		// Unterminated quotes and backticks, also inside and after lists.
		"SELECT `a FROM t", "SELECT `a\n`b` FROM t", "`", "a IN (1, `", `x IN (1, 'open`, "IN (1, 2) `",
		// Non-ASCII identifiers and keyword spellings that fold to ASCII.
		"SELECT ñame FROM tablé WHERE çol IN (1,2)", "select * from t where a \u0131n (1, 2)", "sel\u00e9ct 1",
		// Nested, empty, mixed and unclosed IN lists; lists cut by comments.
		"a IN ()", "a IN (())", "a IN (1, (2, 3))", "a IN (1, 2", "a IN (,)", "a IN (? ? , ,)",
		"a IN IN (1)", "a IN (1 IN (2, 3))", "a in (1) and b In (2,3) or c iN (x)", "IN (1)IN(2)",
		"a IN /* c */ (1, /* d */ 2) -- e", "a IN (1, -- x\n 2)", "a IN (-1, +2, 3e4, 0x5)",
		// Qualified digits, signs, function calls, operators.
		"t.1abc = 1.e5", "a - 1, -1, (-1), a-1", "count(*), Count (x), COUNT(1), máx(1)", "a:=1 <> 2 >= 3 ! = 4",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, sql string) {
		once := Normalize(sql) // must not panic
		twice := Normalize(once)
		if once != twice {
			t.Errorf("not idempotent:\n in: %q\n 1x: %q\n 2x: %q", sql, once, twice)
		}

		// The one-pass renderer must match the tokenize-collapse-join
		// reference pipeline exactly.
		if ref := normalizeReference(sql); once != ref {
			t.Errorf("renderer diverged from reference:\n in: %q\n got: %q\n ref: %q", sql, once, ref)
		}

		// The fingerprint is the FNV-1a sum of the template text, and the
		// template ID is its 8-digit uppercase hex.
		fp := Fingerprint(sql)
		if want := fnvReference(once); fp != want {
			t.Errorf("Fingerprint(%q) = %08X, FNV-1a of %q = %08X", sql, fp, once, want)
		}
		if id, want := New(sql).ID, ID(fmt.Sprintf("%08X", fp)); id != want {
			t.Errorf("New(%q).ID = %q, hex of fingerprint %q", sql, id, want)
		}

		// The stack-buffer keyword and function-name lookups must agree
		// with the strings.ToUpper folding they replace, on any string.
		wantUp := strings.ToUpper(sql)
		if kw, ok := keywordToken(sql); ok != keywords[wantUp] || (ok && kw != wantUp) {
			t.Errorf("keywordToken(%q) = (%q, %v); ToUpper reference = (%q, %v)",
				sql, kw, ok, wantUp, keywords[wantUp])
		}
		if got, want := isFunctionName(sql), funcNames[wantUp]; got != want {
			t.Errorf("isFunctionName(%q) = %v, ToUpper reference %v", sql, got, want)
		}

		// Equal templates hash to equal IDs, and New is consistent with
		// the Normalize/HashID pair it composes.
		tpl := New(sql)
		if tpl.Text != once {
			t.Errorf("New text %q != Normalize %q", tpl.Text, once)
		}
		if tpl.ID != HashID(once) {
			t.Errorf("New ID %q != HashID of template %q", tpl.ID, once)
		}
		if again := New(sql); again != tpl {
			t.Errorf("New not deterministic: %+v vs %+v", tpl, again)
		}
		// A template normalized again is the same template with the same ID.
		if reTpl := New(once); reTpl.ID != tpl.ID {
			t.Errorf("template of template changed ID: %q -> %q", tpl.ID, reTpl.ID)
		}

		// The normalizer must not invent invalid UTF-8 out of valid input.
		if utf8.ValidString(sql) && !utf8.ValidString(once) {
			t.Errorf("valid input normalized to invalid UTF-8: %q -> %q", sql, once)
		}
	})
}
