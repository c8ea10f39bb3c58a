package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dpslog/internal/gen"
	"dpslog/internal/searchlog"
)

// TestAppendWritesLatestOnce: the latest file an append publishes is the
// one it hashed — its bytes hash to the meta digest, the chain head and the
// served log's digest — no staged temp file is left behind, and a reopened
// store serves the same log. The deltas cover existing cells only and new
// users and pairs.
func TestAppendWritesLatestOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("c", testLog(t, rowsA)); err != nil {
		t.Fatal(err)
	}
	for _, rows := range []string{"u1\tq1\thttp://a\t4\n", deltaRows1, "a0\tq0\thttp://0\t1\nu2\tq0\thttp://0\t2\n"} {
		m, v, _, err := s.Append("c", testLog(t, rows))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "c.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		l, _, err := s.Get("c")
		if err != nil {
			t.Fatal(err)
		}
		vs, err := s.Versions("c")
		if err != nil {
			t.Fatal(err)
		}
		if file := hex.EncodeToString(sum[:]); file != m.Digest || file != v.Digest || file != vs[len(vs)-1].Digest || file != l.Digest() {
			t.Fatalf("c.tsv hashes to %s; meta %s, version %s, head %s, log %s", file, m.Digest, v.Digest, vs[len(vs)-1].Digest, l.Digest())
		}
		if m.Bytes != int64(len(raw)) {
			t.Fatalf("meta bytes %d, file %d", m.Bytes, len(raw))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".corpus.tmp-") {
				t.Fatalf("staged file %s left behind", e.Name())
			}
		}

		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		rl, rm, err := re.Get("c")
		if err != nil {
			t.Fatal(err)
		}
		if rm.Digest != m.Digest || rm.Bytes != m.Bytes || rl.Digest() != l.Digest() {
			t.Fatalf("reopened store serves %s (%d bytes), want %s (%d bytes)", rm.Digest, rm.Bytes, m.Digest, m.Bytes)
		}
	}
}

// TestConcurrentAppendAndReads runs appends while readers walk the latest
// log and the base version. Merged versions share rows with their parents,
// so under -race this checks that nothing writes through a shared slice.
func TestConcurrentAppendAndReads(t *testing.T) {
	p, err := gen.Profiles("tiny")
	if err != nil {
		t.Fatal(err)
	}
	base, err := gen.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bm, err := s.Put("c", base)
	if err != nil {
		t.Fatal(err)
	}
	walk := func(l *searchlog.Log) {
		if _, err := searchlog.WriteTSV(io.Discard, l); err != nil {
			t.Error(err)
		}
		l.Digest()
		for i := 0; i < l.NumPairs(); i++ {
			for _, e := range l.Pair(i).Entries {
				_ = l.User(e.User).Total
			}
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				l, _, err := s.Get("c")
				if err != nil {
					t.Error(err)
					return
				}
				walk(l)
				old, _, err := s.GetVersion("c", bm.Digest)
				if err != nil {
					t.Error(err)
					return
				}
				walk(old)
			}
		}()
	}
	for i := range 40 {
		// Touch one existing cell; every fourth append also adds a user
		// and a pair, shifting indices.
		pr := base.Pair(i % base.NumPairs())
		b := searchlog.NewBuilder()
		b.Add(base.User(pr.Entries[0].User).ID, pr.Query, pr.URL, 2)
		if i%4 == 3 {
			b.Add(fmt.Sprintf("0-new-%d", i), fmt.Sprintf("0 new query %d", i), "http://new", 1)
		}
		if _, _, _, err := s.Append("c", b.Log()); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestAppendChainPublishesExactImages runs a chain through every way a
// version can get its file: PUT, three appends, a reopen (whose logs keep
// no TSV image), two appends, a PUT that resets the chain and one append.
// Every published c.tsv must be WriteTSV of a Builder-built copy of the
// served log and hash to the chain head. The first append after a PUT or
// a reopen formats its file in full; later ones splice the parent's image.
// Finally c.tsv is rolled back two versions, and Open's forward fold heals
// it to the same head without truncating the chain.
func TestAppendChainPublishesExactImages(t *testing.T) {
	p, err := gen.Profiles("tiny")
	if err != nil {
		t.Fatal(err)
	}
	base, err := gen.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "c.tsv")
	published := map[string][]byte{} // c.tsv bytes by digest
	check := func(s *Store, step string, wantSpliced bool) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		l, m, err := s.Get("c")
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := searchlog.BuildFromUserCounts(l.UserCounts())
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if _, err := searchlog.WriteTSV(&want, fresh); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want.Bytes()) {
			t.Fatalf("%s: c.tsv (%d bytes) differs from WriteTSV of the log (%d bytes)", step, len(raw), want.Len())
		}
		vs, err := s.Versions("c")
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if d := hex.EncodeToString(sum[:]); d != m.Digest || d != vs[len(vs)-1].Digest || d != l.Digest() {
			t.Fatalf("%s: c.tsv hashes to %s; meta %s, head %s, log %s", step, d, m.Digest, vs[len(vs)-1].Digest, l.Digest())
		}
		if l.ImageSpliced() != wantSpliced {
			t.Fatalf("%s: image spliced %t, want %t", step, l.ImageSpliced(), wantSpliced)
		}
		published[m.Digest] = raw
	}
	appends := 0
	appendOne := func(s *Store, wantSpliced bool) {
		t.Helper()
		// Touch one existing cell; every other append also adds a user
		// and a pair, shifting indices.
		pr := base.Pair(appends * 7 % base.NumPairs())
		b := searchlog.NewBuilder()
		b.Add(base.User(pr.Entries[0].User).ID, pr.Query, pr.URL, 1+appends%3)
		if appends%2 == 1 {
			b.Add(fmt.Sprintf("0-new-%d", appends), fmt.Sprintf("0 new query %d", appends), "http://new", 1)
		}
		appends++
		if _, _, _, err := s.Append("c", b.Log()); err != nil {
			t.Fatal(err)
		}
		check(s, fmt.Sprintf("append %d", appends), wantSpliced)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("c", base); err != nil {
		t.Fatal(err)
	}
	check(s, "put", false)
	for i := range 3 {
		appendOne(s, i > 0)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	check(s, "reopen", false)
	for i := range 2 {
		appendOne(s, i > 0)
	}
	other, err := gen.Generate(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("c", other); err != nil {
		t.Fatal(err)
	}
	check(s, "put reset", false)
	appendOne(s, false)

	// Roll c.tsv back to the reset base; the chain names two appends
	// after it once one more lands.
	appendOne(s, true)
	vs, err := s.Versions("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("chain after reset has %d versions, want 3", len(vs))
	}
	if err := os.WriteFile(path, published[vs[0].Digest], 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	healed, err := s.Versions("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(healed) != len(vs) || healed[len(healed)-1].Digest != vs[len(vs)-1].Digest {
		t.Fatalf("healed chain %+v, want %+v", healed, vs)
	}
	check(s, "healed", true)
}

// TestOpenReadsIndentedVersions: a chain file written indented, as stores
// before the compact encoding wrote it, opens to the same chain.
func TestOpenReadsIndentedVersions(t *testing.T) {
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
	vs, err := s.Versions("c")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.versionsPath("c"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("\n ")) {
		t.Fatalf("versions.json written indented:\n%s", raw)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.versionsPath("c"), indented.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Versions("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vs) {
		t.Fatalf("reopened chain has %d versions, want %d", len(got), len(vs))
	}
	for i := range vs {
		if !got[i].Created.Equal(vs[i].Created) {
			t.Fatalf("version %d created %v, want %v", i, got[i].Created, vs[i].Created)
		}
		got[i].Created = vs[i].Created
		if got[i] != vs[i] {
			t.Fatalf("version %d reopened as %+v, want %+v", i, got[i], vs[i])
		}
	}
}
