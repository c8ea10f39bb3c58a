package analysis

// The fixture harness mirrors golang.org/x/tools/go/analysis/analysistest:
// packages under testdata/src are loaded GOPATH-style, analyzed, and their
// findings compared line-by-line against `// want "regexp"` comments. Every
// analyzer test loads both flagged and allowed fixture packages, so a
// regression in either direction — a lost finding or a new false positive —
// fails `go test ./internal/analysis/...` (the CI fixture-drift guard).

import (
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRE extracts the expectation comments: one or more Go-quoted regexps
// after the marker.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants collects the expectations declared in a fixture package.
func parseWants(t *testing.T, fset *token.FileSet, pkg *TypesPackage) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Slash)
				for _, q := range splitQuoted(t, pos, m[1]) {
					re, err := regexp.Compile(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, q, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted parses a sequence of Go-quoted strings ("..." or `...`).
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"', '`':
			end := strings.IndexByte(s[1:], s[0])
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want string: %s", pos.Filename, pos.Line, s)
			}
			raw := s[:end+2]
			q, err := strconv.Unquote(raw)
			if err != nil {
				t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, raw, err)
			}
			out = append(out, q)
			s = strings.TrimSpace(s[end+2:])
		default:
			t.Fatalf("%s:%d: want expects quoted regexps, got %q", pos.Filename, pos.Line, s)
		}
	}
	return out
}

// testFixture loads the fixture packages, runs one analyzer over each, and
// matches findings against want comments in both directions.
func testFixture(t *testing.T, a *Analyzer, paths ...string) {
	t.Helper()
	ld := NewLoader("testdata/src", "")
	var wants []*expectation
	var findings []Finding
	for _, path := range paths {
		pkg, err := ld.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		fs, err := runPackage(ld.Fset, pkg, []*Analyzer{a})
		if err != nil {
			t.Fatalf("run %s on %s: %v", a.Name, path, err)
		}
		findings = append(findings, fs...)
		wants = append(wants, parseWants(t, ld.Fset, pkg)...)
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestRngDiscipline(t *testing.T) {
	testFixture(t, RngDiscipline,
		"rngdiscipline/bad",
		"rngdiscipline/suppressed",
		"rngdiscipline/internal/rng",
		"rngdiscipline/internal/obs",
	)
}

func TestBudgetArith(t *testing.T) {
	testFixture(t, BudgetArith,
		"budgetarith/bad",
		"budgetarith/internal/ledger",
		"budgetarith/internal/dp",
		"budgetarith/internal/mechanism",
	)
}

func TestJSONBuild(t *testing.T) {
	testFixture(t, JSONBuild, "jsonbuild/a")
}

func TestDeferClose(t *testing.T) {
	testFixture(t, DeferClose,
		"deferclose/a",
		"deferclose/internal/corpus",
	)
}

func TestFusable(t *testing.T) {
	testFixture(t, Fusable,
		"fusable/internal/lp",
		"fusable/other",
	)
}

func TestCtxFlow(t *testing.T) {
	testFixture(t, CtxFlow,
		"ctxflow/internal/server",
		"ctxflow/other",
	)
}

func TestLedgerOrder(t *testing.T) {
	testFixture(t, LedgerOrder,
		"ledgerorder/a",
		"ledgerorder/internal/ledger",
	)
}

// TestSuiteHasFixtures pins the acceptance shape: every registered analyzer
// is exercised by at least one fixture directory above. Adding an analyzer
// without fixtures fails here before it can rot.
func TestSuiteHasFixtures(t *testing.T) {
	covered := map[string]bool{
		"rngdiscipline": true,
		"budgetarith":   true,
		"jsonbuild":     true,
		"deferclose":    true,
		"fusable":       true,
		"ctxflow":       true,
		"ledgerorder":   true,
	}
	if len(All) < 7 {
		t.Fatalf("the suite shrank: %d analyzers registered, want >= 7", len(All))
	}
	for _, a := range All {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no fixture test", a.Name)
		}
	}
	if ByName("rngdiscipline") == nil {
		t.Error("ByName(rngdiscipline) = nil")
	}
}
