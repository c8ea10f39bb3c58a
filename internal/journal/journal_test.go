package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// valid is the record rule the tests replay under: a JSON object.
func valid(line []byte) bool {
	return bytes.HasPrefix(line, []byte{'{'}) && json.Valid(line)
}

// replayAll opens path and returns the File and the lines it applied.
func replayAll(path string) (*File, [][]byte, error) {
	var got [][]byte
	j, err := Open(path, "test", func(line []byte) error {
		if !valid(line) {
			return errInvalid
		}
		got = append(got, bytes.Clone(line))
		return nil
	})
	return j, got, err
}

var errInvalid = os.ErrInvalid

// model is the replay contract written out on the raw bytes: every
// '\n'-terminated line must be valid (else Open fails); a final
// unterminated line is kept, with its '\n' restored, if valid and
// truncated away if not. It returns the lines Open applies and the file
// it leaves, or ok=false when Open must fail.
func model(data []byte) (lines [][]byte, file []byte, torn, ok bool) {
	segs := bytes.Split(data, []byte{'\n'})
	tail := segs[len(segs)-1]
	for _, line := range segs[:len(segs)-1] {
		if !valid(line) {
			return nil, nil, false, false
		}
		lines = append(lines, line)
		file = append(append(file, line...), '\n')
	}
	if len(tail) > 0 {
		torn = true
		if valid(tail) {
			lines = append(lines, tail)
			file = append(append(file, tail...), '\n')
		}
	}
	return lines, file, torn, true
}

// FuzzJournal replays arbitrary bytes, cut at an arbitrary point as a
// crash mid-append would cut them. Open must match the model exactly: it
// never accepts an interior bad line, truncates or repairs the tail and
// nothing else, and leaves a journal that takes an append and replays it.
func FuzzJournal(f *testing.F) {
	f.Add([]byte("{\"k\":1}\n{\"k\":2}\n"), uint16(100))
	f.Add([]byte("{\"k\":1}\n{\"k\":2}\n"), uint16(12))
	f.Add([]byte("{\"k\":1}\n{\"k\":2}\n"), uint16(15))
	f.Add([]byte("{\"k\":1}\nnot json\n{\"k\":3}\n"), uint16(100))
	f.Add([]byte("{\"k\":1}\n\n"), uint16(100))
	f.Add([]byte(""), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		if int(cut) < len(data) {
			data = data[:cut]
		}
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		wantLines, wantFile, wantTorn, ok := model(data)
		j, got, err := replayAll(path)
		if !ok {
			if err == nil {
				j.Close()
				t.Fatalf("Open accepted a journal with a bad interior line: %q", data)
			}
			raw, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(raw, data) {
				t.Fatalf("a failed Open changed the journal: %q -> %q", data, raw)
			}
			return
		}
		if err != nil {
			t.Fatalf("Open refused %q: %v", data, err)
		}
		if len(got) != len(wantLines) {
			t.Fatalf("applied %d lines, want %d", len(got), len(wantLines))
		}
		for i := range got {
			if !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("line %d applied as %q, want %q", i+1, got[i], wantLines[i])
			}
		}
		if j.Torn() != wantTorn {
			t.Fatalf("Torn() = %t, want %t", j.Torn(), wantTorn)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, wantFile) || j.Size() != int64(len(wantFile)) {
			t.Fatalf("journal left as %q (size %d), want %q", raw, j.Size(), wantFile)
		}
		next := []byte(`{"next":true}`)
		if err := j.Append(context.Background(), next); err != nil {
			t.Fatal(err)
		}
		j.Close()
		re, again, err := replayAll(path)
		if err != nil {
			t.Fatalf("journal does not replay after an append: %v", err)
		}
		defer re.Close()
		if re.Torn() || len(again) != len(wantLines)+1 || !bytes.Equal(again[len(again)-1], next) {
			t.Fatalf("replay after the append applied %d lines (torn %t), want %d ending in %q", len(again), re.Torn(), len(wantLines)+1, next)
		}
	})
}

// TestCreateReplacesWhole: Create replaces a journal atomically with its
// lines, and the File it returns appends after them.
func TestCreateReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	if err := os.WriteFile(path, []byte("{\"old\":1}\n{\"old\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Create(path, "test", [][]byte{[]byte(`{"a":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(context.Background(), []byte(`{"b":2}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "{\"a\":1}\n{\"b\":2}\n" {
		t.Fatalf("journal %q", raw)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("Create left %d files behind", len(entries))
	}
}
