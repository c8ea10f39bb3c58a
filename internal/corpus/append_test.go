package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
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

// TestAppendWritesLatestOnce: every version an append journals is the one
// it hashed — the served log, its image, the meta digest and the chain head
// agree, and Meta.Bytes is the image's size — c.tsv always hashes to a
// version of the chain and, whenever an append rewrote it, to the new
// head; no staged temp file is left behind, and a reopened store serves
// the same log. The deltas cover existing cells only and new users and
// pairs.
func TestAppendWritesLatestOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("c", testLog(t, rowsA)); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(filepath.Join(dir, "c.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []string{"u1\tq1\thttp://a\t4\n", deltaRows1, "a0\tq0\thttp://0\t1\nu2\tq0\thttp://0\t2\n"} {
		m, v, _, err := s.Append("c", testLog(t, rows))
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := s.Get("c")
		if err != nil {
			t.Fatal(err)
		}
		vs, err := s.Versions("c")
		if err != nil {
			t.Fatal(err)
		}
		var img bytes.Buffer
		if _, err := searchlog.WriteTSVDigest(&img, l); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(img.Bytes())
		if d := hex.EncodeToString(sum[:]); d != m.Digest || d != v.Digest || d != vs[len(vs)-1].Digest || d != l.Digest() {
			t.Fatalf("image hashes to %s; meta %s, version %s, head %s, log %s", d, m.Digest, v.Digest, vs[len(vs)-1].Digest, l.Digest())
		}
		if m.Bytes != int64(img.Len()) {
			t.Fatalf("meta bytes %d, image %d", m.Bytes, img.Len())
		}
		raw, err := os.ReadFile(filepath.Join(dir, "c.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, prev) && !bytes.Equal(raw, img.Bytes()) {
			t.Fatalf("append rewrote c.tsv (%d bytes) to something other than its head (%d bytes)", len(raw), img.Len())
		}
		if !chainHas(vs, raw) {
			t.Fatal("c.tsv hashes to no version of the chain")
		}
		prev = raw
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".") {
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
		re.Close()
	}
}

// chainHas reports whether raw hashes to a version of vs.
func chainHas(vs []Version, raw []byte) bool {
	sum := sha256.Sum256(raw)
	d := hex.EncodeToString(sum[:])
	for _, v := range vs {
		if v.Digest == d {
			return true
		}
	}
	return false
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
// version can get its image: PUT, three appends, a reopen (which folds the
// journaled appends onto the checkpoint), appends until one checkpoints, a
// PUT that resets the chain and two appends. Every version's image must be
// WriteTSV of a Builder-built copy of the served log and hash to the chain
// head, and every checkpoint must write exactly that image to c.tsv. The
// first append after a PUT formats its image in full; later ones, and the
// first after a reopen that folded, splice the parent's image. Finally
// c.tsv is rolled back to the reset base, and Open's forward fold heals
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
	published := map[string][]byte{} // each version's image by digest
	var lastFile []byte
	checkpoints := 0
	check := func(s *Store, step string, wantSpliced bool) {
		t.Helper()
		l, m, err := s.Get("c")
		if err != nil {
			t.Fatal(err)
		}
		if l.ImageSpliced() != wantSpliced {
			t.Fatalf("%s: image spliced %t, want %t", step, l.ImageSpliced(), wantSpliced)
		}
		var img bytes.Buffer
		if _, err := searchlog.WriteTSVDigest(&img, l); err != nil {
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
		if !bytes.Equal(img.Bytes(), want.Bytes()) {
			t.Fatalf("%s: image (%d bytes) differs from WriteTSV of the log (%d bytes)", step, img.Len(), want.Len())
		}
		vs, err := s.Versions("c")
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(img.Bytes())
		if d := hex.EncodeToString(sum[:]); d != m.Digest || d != vs[len(vs)-1].Digest || d != l.Digest() {
			t.Fatalf("%s: image hashes to %s; meta %s, head %s, log %s", step, d, m.Digest, vs[len(vs)-1].Digest, l.Digest())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, lastFile) {
			// Rewritten: a PUT or a checkpoint, which publish the head.
			if !bytes.Equal(raw, img.Bytes()) {
				t.Fatalf("%s: c.tsv rewritten to %d bytes, not the head's %d-byte image", step, len(raw), img.Len())
			}
			checkpoints++
			lastFile = raw
		} else if !chainHas(vs, raw) {
			t.Fatalf("%s: c.tsv hashes to no version of the chain", step)
		}
		published[m.Digest] = img.Bytes()
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
	if got := s.Recovery().Folded; got != 3 {
		t.Fatalf("reopen folded %d versions, want the 3 journaled since the PUT", got)
	}
	check(s, "reopen", false)
	for ckpt := checkpoints; checkpoints == ckpt; {
		if appends > 200 {
			t.Fatal("no checkpoint in 200 appends")
		}
		appendOne(s, true)
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
	appendOne(s, true)
	vs, err := s.Versions("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("chain after reset has %d versions, want 3", len(vs))
	}

	// Roll c.tsv back to the reset base; the chain names two appends
	// after it.
	if err := os.WriteFile(path, published[vs[0].Digest], 0o644); err != nil {
		t.Fatal(err)
	}
	lastFile = published[vs[0].Digest]
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
	check(s, "healed", false)
}

// legacyStore writes, by hand, the directory a store from before the
// chain journal left behind for a PUT and two appends: c.tsv at the head,
// name.versions.json (indented if asked) and one c.d<seq>.tsv per append.
// It returns the chain the store should open to.
func legacyStore(t *testing.T, dir string, indent bool) []Version {
	t.Helper()
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Put("c", testLog(t, rowsA)); err != nil {
		t.Fatal(err)
	}
	for i, rows := range []string{deltaRows1, deltaRows2} {
		if _, _, _, err := src.Append("c", testLog(t, rows)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("c.d%d.tsv", i+2)), []byte(rows), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := src.Versions("c")
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := src.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	var head bytes.Buffer
	if _, err := searchlog.WriteTSV(&head, l); err != nil {
		t.Fatal(err)
	}
	file := map[string]any{"v": 1, "versions": vs}
	raw, err := json.Marshal(file)
	if indent {
		raw, err = json.MarshalIndent(file, "", "  ")
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "c.versions.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "c.tsv"), head.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return vs
}

// TestOpenReadsIndentedVersions: a legacy directory — versions.json, compact
// or indented as older stores wrote it, plus one delta file per append —
// opens to the same chain, Created included, and every version
// materializes to its digest. The old files are migrated into the journal
// and removed, once: a reopen migrates nothing. An interrupted migration
// (journal written, old files still present) keeps the journal and
// finishes the removal.
func TestOpenReadsIndentedVersions(t *testing.T) {
	for _, indent := range []bool{false, true} {
		dir := t.TempDir()
		vs := legacyStore(t, dir, indent)
		sameChain := func(s *Store, step string) {
			t.Helper()
			got, err := s.Versions("c")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(vs) {
				t.Fatalf("%s: chain has %d versions, want %d", step, len(got), len(vs))
			}
			for i := range vs {
				if !got[i].Created.Equal(vs[i].Created) {
					t.Fatalf("%s: version %d created %v, want %v", step, i, got[i].Created, vs[i].Created)
				}
				got[i].Created = vs[i].Created
				if got[i] != vs[i] {
					t.Fatalf("%s: version %d opened as %+v, want %+v", step, i, got[i], vs[i])
				}
				l, _, err := s.GetVersion("c", vs[i].Digest)
				if err != nil {
					t.Fatal(err)
				}
				if l.Digest() != vs[i].Digest {
					t.Fatalf("%s: version %d materialized to %s", step, i, l.Digest())
				}
			}
			for _, old := range []string{"c.versions.json", "c.d2.tsv", "c.d3.tsv"} {
				if _, err := os.Stat(filepath.Join(dir, old)); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("%s: legacy file %s left behind: %v", step, old, err)
				}
			}
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Recovery().Migrated; got != 1 {
			t.Fatalf("indent %t: Open migrated %d corpora, want 1", indent, got)
		}
		sameChain(s, "migrated")
		s.Close()
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := re.Recovery().Migrated; got != 0 {
			t.Fatalf("reopen migrated %d corpora again", got)
		}
		sameChain(re, "reopened")
		re.Close()

		// Cut a migration short: the journal is written, the old files are
		// back. The journal is kept.
		legacyStore(t, dir, indent)
		cut, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sameChain(cut, "interrupted")
		cut.Close()
	}
}
