package corpus

import (
	"crypto/sha256"
	"encoding/hex"
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
