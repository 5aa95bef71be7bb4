package reach

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

const listFile = "testdata/unreachable.txt"

// TestReachability is the ratchet: every func and method outside
// benchmark/ that no main and no export of the root package reaches is a
// row of testdata/unreachable.txt with its reason, and every row is such
// a symbol.
func TestReachability(t *testing.T) {
	start := time.Now()
	m, err := loadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	res := reachability(m)
	t.Logf("type-checked %d packages and walked them in %v", len(m.pkgs), time.Since(start).Round(time.Millisecond))
	t.Logf("roots: main in %s; the exports of %s", strings.Join(res.mains, ", "), m.path)
	t.Logf("benchmark roots: main in %s", strings.Join(res.benchMains, ", "))

	data, err := os.ReadFile(listFile)
	if err != nil {
		t.Fatal(err)
	}
	tests, err := testNames(m.root)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range check(res.rows, string(data), tests) {
		t.Error(msg)
	}
	rows, counts := rowLines(string(data)), map[string]int{}
	for _, line := range rows {
		if f := strings.Fields(line.text); len(f) > 1 {
			counts[f[1]]++
		}
		t.Logf("  %s", line.text)
	}
	t.Logf("%d rows: %d benchmark, %d oracle, %d fixture", len(rows), counts["benchmark"], counts["oracle"], counts["fixture"])
}

// TestWalkerRules pins the walker's output on a module with one case per
// rule (testdata/fixture, each case commented there).
func TestWalkerRules(t *testing.T) {
	m, err := loadModule(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	res := reachability(m)
	var got []string
	for _, r := range res.rows {
		line := r.sym
		if r.bench {
			line += " benchmark"
		}
		got = append(got, line)
	}
	want := []string{
		"lib.BenchOnly benchmark",
		"lib.Circle.Area",
		"lib.Dead",
		"lib.Square.Perimeter",
		"lib.Stack.Pop",
		"lib.Tile.Area",
		"lib.onlyElsewhere",
		"orphan.Orphan",
		"orphan.fromOrphanInit",
	}
	if !slices.Equal(got, want) {
		t.Errorf("unreachable:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if want := []string{"cmd/app"}; !slices.Equal(res.mains, want) {
		t.Errorf("roots %q, want %q", res.mains, want)
	}
	if want := []string{"benchmark"}; !slices.Equal(res.benchMains, want) {
		t.Errorf("benchmark roots %q, want %q", res.benchMains, want)
	}
}

func TestCheckMessages(t *testing.T) {
	rows := []row{{"a.Bench", true}, {"a.Dead", false}, {"a.Oracle", false}}
	tests := map[string]bool{"TestA": true}
	list := "# comment\na.Bench benchmark\na.Oracle oracle TestA\na.Gone fixture\na.Untagged\na.Dead oracle TestB\n"
	got := check(rows, list, tests)
	want := []string{
		"testdata/unreachable.txt:4: a.Gone is reachable or no longer exists: remove the line `a.Gone fixture`",
		"testdata/unreachable.txt:5: `a.Untagged` needs one tag: benchmark, oracle <Test> or fixture",
		"testdata/unreachable.txt:6: no test TestB in the module",
	}
	if !slices.Equal(got, want) {
		t.Errorf("messages:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	got = check(rows, "a.Bench fixture\n", tests)
	want = []string{
		"testdata/unreachable.txt:1: a.Bench is reached from benchmark/ only: write `a.Bench benchmark`",
		"a.Dead is unreachable: delete it, or add the line `a.Dead fixture` or `a.Dead oracle <Test>`",
		"a.Oracle is unreachable: delete it, or add the line `a.Oracle fixture` or `a.Oracle oracle <Test>`",
	}
	if !slices.Equal(got, want) {
		t.Errorf("messages:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

type listLine struct {
	n    int
	text string
}

// rowLines returns the list's rows: every line but blanks and # comments.
func rowLines(list string) []listLine {
	var out []listLine
	for i, text := range strings.Split(list, "\n") {
		if text = strings.TrimSpace(text); text != "" && !strings.HasPrefix(text, "#") {
			out = append(out, listLine{i + 1, text})
		}
	}
	return out
}

// check compares the walker's rows with the list and returns one message,
// naming the line to add or remove, per disagreement.
func check(rows []row, list string, tests map[string]bool) []string {
	var msgs []string
	bad := func(l listLine, format string, args ...any) {
		msgs = append(msgs, fmt.Sprintf("%s:%d: ", listFile, l.n)+fmt.Sprintf(format, args...))
	}
	unreachable := map[string]bool{}
	for _, r := range rows {
		unreachable[r.sym] = r.bench
	}
	listed := map[string]bool{}
	for _, l := range rowLines(list) {
		f := strings.Fields(l.text)
		sym := f[0]
		if listed[sym] {
			bad(l, "%s is listed twice", sym)
			continue
		}
		listed[sym] = true
		bench, ok := unreachable[sym]
		tag := strings.Join(f[1:], " ")
		switch {
		case tag != "benchmark" && tag != "fixture" && (len(f) != 3 || f[1] != "oracle"):
			bad(l, "`%s` needs one tag: benchmark, oracle <Test> or fixture", l.text)
		case !ok:
			bad(l, "%s is reachable or no longer exists: remove the line `%s`", sym, l.text)
		case tag == "benchmark":
			if !bench {
				bad(l, "%s is not reached from benchmark/: tag it oracle <Test> or fixture, or delete it", sym)
			}
		case bench:
			bad(l, "%s is reached from benchmark/ only: write `%s benchmark`", sym, sym)
		case f[1] == "oracle" && !tests[f[2]]:
			bad(l, "no test %s in the module", f[2])
		}
	}
	for _, r := range rows {
		switch {
		case listed[r.sym]:
		case r.bench:
			msgs = append(msgs, fmt.Sprintf("%s is reached from benchmark/ only: add the line `%s benchmark`", r.sym, r.sym))
		default:
			msgs = append(msgs, fmt.Sprintf("%s is unreachable: delete it, or add the line `%s fixture` or `%s oracle <Test>`", r.sym, r.sym, r.sym))
		}
	}
	return msgs
}

var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// testNames returns the names of the module's tests and fuzz targets.
func testNames(root string) (map[string]bool, error) {
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(p, "_test.go") {
			if err == nil && d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return err
		}
		data, err := os.ReadFile(p)
		for _, m := range testFunc.FindAllSubmatch(data, -1) {
			names[string(m[1])] = true
		}
		return err
	})
	return names, err
}
