package corpus

import (
	"errors"
	"os"
	"strings"
	"testing"

	"dpslog/internal/searchlog"
)

const deltaRows1 = "u2\tq1\thttp://a\t5\nu9\tq9\thttp://z\t1\n"
const deltaRows2 = "u9\tq9\thttp://z\t2\n"

func TestAppendCreatesVersionChain(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	la := testLog(t, rowsA)
	base, err := s.Put("c", la)
	if err != nil {
		t.Fatal(err)
	}

	m2, v2, touched, err := s.Append("c", testLog(t, deltaRows1))
	if err != nil {
		t.Fatal(err)
	}
	if v2.Seq != 2 || v2.Parent != base.Digest || v2.Digest == base.Digest {
		t.Fatalf("version 2 chain wrong: %+v", v2)
	}
	if m2.Digest != v2.Digest {
		t.Fatalf("latest meta digest %s != version digest %s", m2.Digest, v2.Digest)
	}
	if strings.Join(touched, ",") != "u2,u9" {
		t.Fatalf("touched users %v", touched)
	}
	if v2.DeltaRows != 2 || v2.DeltaUsers != 2 {
		t.Fatalf("delta shape %+v", v2)
	}
	// The fold is addition: u2's count for (q1, a) is 1 + 5.
	l2, _, err := s.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	i := l2.PairIndex(searchlog.PairKey{Query: "q1", URL: "http://a"})
	k := l2.UserIndex("u2")
	if got := l2.TripletCount(i, k); got != 6 {
		t.Fatalf("u2 (q1,a) count %d, want 6", got)
	}

	_, v3, _, err := s.Append("c", testLog(t, deltaRows2))
	if err != nil {
		t.Fatal(err)
	}
	if v3.Seq != 3 || v3.Parent != v2.Digest {
		t.Fatalf("version 3 chain wrong: %+v", v3)
	}

	vs, err := s.Versions("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0].Digest != base.Digest || vs[1].Digest != v2.Digest || vs[2].Digest != v3.Digest {
		t.Fatalf("chain %+v", vs)
	}
}

func TestGetVersionMaterializesAncestors(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	la := testLog(t, rowsA)
	base, err := s.Put("c", la)
	if err != nil {
		t.Fatal(err)
	}
	_, v2, _, err := s.Append("c", testLog(t, deltaRows1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Append("c", testLog(t, deltaRows2)); err != nil {
		t.Fatal(err)
	}

	// The base version must materialize back to the exact original bytes.
	l1, vm, err := s.GetVersion("c", base.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Seq != 1 || l1.Digest() != la.Digest() {
		t.Fatalf("base version materialized to %s (seq %d)", l1.Digest(), vm.Seq)
	}
	// The middle version too (exercises the delta-subtraction path).
	lm, _, err := s.GetVersion("c", v2.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Digest() != v2.Digest {
		t.Fatalf("middle version materialized to %s, want %s", lm.Digest(), v2.Digest)
	}
	if _, _, err := s.GetVersion("c", "no-such-digest"); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("want ErrVersionNotFound, got %v", err)
	}
	if _, err := s.VersionMeta("c", v2.Digest); err != nil {
		t.Fatal(err)
	}
}

func TestVersionChainSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Put("c", testLog(t, rowsA))
	if err != nil {
		t.Fatal(err)
	}
	_, v2, _, err := s.Append("c", testLog(t, deltaRows1))
	if err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := re.Versions("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0].Digest != base.Digest || vs[1].Digest != v2.Digest {
		t.Fatalf("reopened chain %+v", vs)
	}
	m, _ := re.Meta("c")
	if m.Digest != v2.Digest {
		t.Fatalf("reopened latest %s, want %s", m.Digest, v2.Digest)
	}
	l1, _, err := re.GetVersion("c", base.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Digest() != base.Digest {
		t.Fatal("reopened store materialized the wrong base version")
	}
}

func TestLegacyCorpusSynthesizesSingleVersion(t *testing.T) {
	dir := t.TempDir()
	// A pre-version store: a bare TSV, no chain metadata.
	if err := os.WriteFile(dir+"/old.tsv", []byte(rowsA), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := s.Versions("old")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Seq != 1 || vs[0].Parent != "" {
		t.Fatalf("legacy chain %+v", vs)
	}
	m, _ := s.Meta("old")
	if vs[0].Digest != m.Digest {
		t.Fatal("legacy base version digest diverges from meta")
	}
	// Opening must not have written a chain journal for a corpus nobody
	// appended to.
	if _, err := os.Stat(dir + "/old.journal"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("legacy open wrote a chain journal: %v", err)
	}
	// An append upgrades it in place.
	if _, _, _, err := s.Append("old", testLog(t, deltaRows1)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir + "/old.journal"); err != nil {
		t.Fatal(err)
	}
}

func TestCrashedAppendHealsOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("c", testLog(t, rowsA)); err != nil {
		t.Fatal(err)
	}
	_, v2, _, err := s.Append("c", testLog(t, deltaRows1))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between publishing the chain and materializing the
	// new latest: roll name.tsv back to the base version's bytes while the
	// chain still names v2 as head.
	if err := os.WriteFile(dir+"/c.tsv", []byte(rowsA), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := re.Meta("c")
	if m.Digest != v2.Digest {
		t.Fatalf("healed latest %s, want chain head %s", m.Digest, v2.Digest)
	}
	l, _, err := re.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	if l.Digest() != v2.Digest {
		t.Fatal("healed log does not hash to the chain head")
	}
}

func TestOutOfBandReplaceResetsChain(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("c", testLog(t, rowsA)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Append("c", testLog(t, deltaRows1)); err != nil {
		t.Fatal(err)
	}
	// Replace the TSV with content matching nothing in the chain.
	if err := os.WriteFile(dir+"/c.tsv", []byte(rowsB), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := re.Versions("c")
	if err != nil {
		t.Fatal(err)
	}
	lb := testLog(t, rowsB)
	if len(vs) != 1 || vs[0].Digest != lb.Digest() {
		t.Fatalf("reset chain %+v", vs)
	}
}

func TestPutResetsChainAndAppendRejectsEmpty(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("c", testLog(t, rowsA)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Append("c", testLog(t, deltaRows1)); err != nil {
		t.Fatal(err)
	}
	lb := testLog(t, rowsB)
	if _, err := s.Put("c", lb); err != nil {
		t.Fatal(err)
	}
	vs, err := s.Versions("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Digest != lb.Digest() {
		t.Fatalf("chain after PUT %+v", vs)
	}

	empty, err := searchlog.FromRecords(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Append("c", empty); !errors.Is(err, ErrEmptyDelta) {
		t.Fatalf("want ErrEmptyDelta, got %v", err)
	}
	if _, _, _, err := s.Append("missing", testLog(t, deltaRows1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}
