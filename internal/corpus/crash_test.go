package corpus

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dpslog/internal/gen"
	"dpslog/internal/searchlog"
)

// snapshot reads every file of dir.
func snapshot(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// crashState is the directory a crash at one durable step of an append
// leaves behind, and whether the append's version may survive it.
type crashState struct {
	step    string
	files   map[string][]byte
	survive bool // the new version must be the head; else the old one
}

// TestAppendCrashPoints cuts appends at each durable step — a journal line
// torn mid-write, a complete line without its '\n', a checkpoint temp file
// left behind, a checkpoint renamed but its directory not yet synced — and
// reopens each cut. After every reopen the head is the old or the new
// version as the step dictates, every version of the chain materializes to
// its digest, no acknowledged version is lost, and the store takes a
// further append that a second reopen agrees with.
func TestAppendCrashPoints(t *testing.T) {
	p, err := gen.Profiles("tiny")
	if err != nil {
		t.Fatal(err)
	}
	base, err := gen.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, err := s.Put("c", base)
	if err != nil {
		t.Fatal(err)
	}
	acked := []Version{baseVersion(base, m.Digest, m.Uploaded)}
	// delta adds n users sharing one fresh pair, so each append journals
	// about two kilobytes and the 12 kB corpus checkpoints every few.
	delta := func(i, n int) *searchlog.Log {
		b := searchlog.NewBuilder()
		for u := range n {
			b.Add(fmt.Sprintf("crash-%03d-%02d", i, u), fmt.Sprintf("crash query %d", i), "http://crash.example", 1+u%3)
		}
		return b.Log()
	}
	checkpoints := 0
	for i := range 14 {
		before := snapshot(t, dir)
		_, v, _, err := s.Append("c", delta(i, 40))
		if err != nil {
			t.Fatal(err)
		}
		after := snapshot(t, dir)
		line := after["c.journal"][len(before["c.journal"]):]
		with := func(journal []byte, tsv []byte, extra map[string][]byte) map[string][]byte {
			files := map[string][]byte{"c.journal": journal, "c.tsv": tsv}
			for k, b := range extra {
				files[k] = b
			}
			return files
		}
		old := before["c.journal"]
		states := []crashState{
			{"torn after one byte", with(append(bytes.Clone(old), line[:1]...), before["c.tsv"], nil), false},
			{"torn mid-line", with(append(bytes.Clone(old), line[:len(line)/2]...), before["c.tsv"], nil), false},
			{"torn before the closing brace", with(append(bytes.Clone(old), line[:len(line)-2]...), before["c.tsv"], nil), false},
			{"line without its newline", with(append(bytes.Clone(old), line[:len(line)-1]...), before["c.tsv"], nil), true},
		}
		if !bytes.Equal(before["c.tsv"], after["c.tsv"]) {
			checkpoints++
			states = append(states,
				crashState{"checkpoint temp left behind", with(after["c.journal"], before["c.tsv"],
					map[string][]byte{".corpus.tmp-1": after["c.tsv"][:len(after["c.tsv"])/2]}), true},
				crashState{"checkpoint rename lost with the unsynced directory", with(after["c.journal"], before["c.tsv"], nil), true},
				crashState{"checkpoint renamed, directory not synced", with(after["c.journal"], after["c.tsv"], nil), true},
			)
		}
		for _, st := range states {
			want := acked
			if st.survive {
				want = append(acked[:len(acked):len(acked)], v)
			}
			reopenCut(t, fmt.Sprintf("append %d, %s", i+1, st.step), st.files, want, delta(1000+i, 2))
		}
		acked = append(acked, v)
	}
	if checkpoints < 2 {
		t.Fatalf("%d checkpoints in 14 appends; the crash points of a checkpoint went untested", checkpoints)
	}
}

// reopenCut writes files to a fresh directory, opens it and checks that the
// chain is want, that every version materializes to its digest, that a
// torn journal tail was counted, and that one more append survives a second reopen with the chain it extended.
func reopenCut(t *testing.T, step string, files map[string][]byte, want []Version, next *searchlog.Log) {
	t.Helper()
	dir := t.TempDir()
	for name, raw := range files {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	verify := func(s *Store, want []Version, materialize bool) {
		t.Helper()
		vs, err := s.Versions("c")
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if len(vs) != len(want) {
			t.Fatalf("%s: reopened chain has %d versions, want %d", step, len(vs), len(want))
		}
		for i := range want {
			if vs[i].Digest != want[i].Digest || vs[i].Seq != want[i].Seq {
				t.Fatalf("%s: version %d is %s (seq %d), want %s (seq %d)", step, i+1, vs[i].Digest, vs[i].Seq, want[i].Digest, want[i].Seq)
			}
		}
		_, m, err := s.Get("c")
		if err != nil {
			t.Fatal(err)
		}
		if m.Digest != want[len(want)-1].Digest {
			t.Fatalf("%s: serves %s, want head %s", step, m.Digest, want[len(want)-1].Digest)
		}
		if !materialize {
			return
		}
		// Oldest first, so each materialization subtracts every later delta.
		for _, v := range vs {
			l, _, err := s.GetVersion("c", v.Digest)
			if err != nil {
				t.Fatalf("%s: version %d: %v", step, v.Seq, err)
			}
			if l.Digest() != v.Digest {
				t.Fatalf("%s: version %d materializes to %s, want %s", step, v.Seq, l.Digest(), v.Digest)
			}
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	verify(s, want, true)
	if torn := !bytes.HasSuffix(files["c.journal"], []byte{'\n'}); (s.Recovery().TornTails == 1) != torn {
		t.Fatalf("%s: Open counted %d torn tails, journal torn %t", step, s.Recovery().TornTails, torn)
	}
	_, v, _, err := s.Append("c", next)
	if err != nil {
		t.Fatalf("%s: append after reopen: %v", step, err)
	}
	s.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("%s: second reopen: %v", step, err)
	}
	defer re.Close()
	verify(re, append(want[:len(want):len(want)], v), false)
}
