package corpus

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dpslog/internal/searchlog"
)

func testLog(t *testing.T, rows string) *searchlog.Log {
	t.Helper()
	l, err := searchlog.ReadTSV(strings.NewReader(rows))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

const rowsA = "u1\tq1\thttp://a\t2\nu2\tq1\thttp://a\t1\n"
const rowsB = "u1\tq2\thttp://b\t3\nu3\tq2\thttp://b\t4\n"

func TestPutGetDeleteList(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	la := testLog(t, rowsA)
	m, err := s.Put("alpha", la)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "alpha" || m.Digest != la.Digest() || m.Size != 3 || m.NumUsers != 2 || m.NumPairs != 1 {
		t.Fatalf("meta %+v", m)
	}
	if _, err := s.Put("beta", testLog(t, rowsB)); err != nil {
		t.Fatal(err)
	}

	got, gm, err := s.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != la.Digest() || gm.Digest != m.Digest {
		t.Fatal("Get returned a different corpus")
	}
	if _, _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}

	names := []string{}
	for _, mm := range s.List() {
		names = append(names, mm.Name)
	}
	if strings.Join(names, ",") != "alpha,beta" {
		t.Fatalf("List order %v", names)
	}

	if err := s.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("alpha"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len %d after delete", s.Len())
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	la := testLog(t, rowsA)
	want, err := s.Put("alpha", la)
	if err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := re.Meta("alpha")
	if !ok {
		t.Fatal("alpha lost across reopen")
	}
	// Uploaded becomes the file mtime on reopen; everything identity-bearing
	// must survive exactly.
	m.Uploaded = want.Uploaded
	if m != want {
		t.Fatalf("reopened meta %+v, want %+v", m, want)
	}
	l, _, err := re.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if l.Digest() != la.Digest() {
		t.Fatal("reopened corpus digest diverged")
	}
}

func TestPutOverwriteAndAtomicity(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("c", testLog(t, rowsA)); err != nil {
		t.Fatal(err)
	}
	lb := testLog(t, rowsB)
	m, err := s.Put("c", lb)
	if err != nil {
		t.Fatal(err)
	}
	if m.Digest != lb.Digest() {
		t.Fatal("overwrite kept the old digest")
	}
	// No temp litter: exactly the published TSV and its chain journal.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != "c.journal" || entries[1].Name() != "c.tsv" {
		names := []string{}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("store dir contents %v", names)
	}
}

func TestInvalidNamesRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := testLog(t, rowsA)
	for _, name := range []string{"", ".", "..", "../evil", "a/b", "a\\b", ".hidden", "-dash", strings.Repeat("x", 65), "sp ace"} {
		if _, err := s.Put(name, l); err == nil {
			t.Errorf("Put(%q) accepted", name)
		}
	}
	for _, name := range []string{"a", "corpus-1", "A.b_c-d", "x2006"} {
		if !ValidName(name) {
			t.Errorf("ValidName(%q) = false", name)
		}
	}
}

func TestOpenSkipsLeftoverTempFiles(t *testing.T) {
	dir := t.TempDir()
	// A crash between CreateTemp and rename leaves a dot-temp file behind;
	// Open must neither fail on it nor surface it as a corpus.
	if err := os.WriteFile(filepath.Join(dir, ".c.tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("temp leftover surfaced as corpus: %v", s.List())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	la := testLog(t, rowsA)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := s.Put("shared", la); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.Get("shared"); err != nil {
					t.Error(err)
					return
				}
				s.List()
			}
		}()
	}
	wg.Wait()
}
