package searchlog

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

// sequentialFold is the reference Fold must match: the same scanner at an
// explicit chunk size, feeding a Builder on one goroutine.
func sequentialFold(input string, scan func(io.Reader, ScanConfig, func(Row) error) (int, error), chunk int) (*Log, error) {
	b := NewBuilder()
	if _, err := scan(strings.NewReader(input), ScanConfig{ChunkBytes: chunk}, func(row Row) error {
		b.Add(row.User, row.Query, row.URL, row.Count)
		return b.Err()
	}); err != nil {
		return nil, err
	}
	return b.BuildLog()
}

// checkNoLeak fails unless the goroutine count returns to base: the fold's
// scanner goroutine must have exited by the time Fold returns (it may
// still be unwinding for a moment after closing its channel).
func checkNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after Fold returned, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// manyChunks returns n rows (canonical TSV, or AOL with aol set), enough
// bytes that the default scanner reads several chunks and the fold hands
// over many batches.
func manyChunks(n int, aol bool) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if aol {
			fmt.Fprintf(&sb, "%d\tquery %d about something\t2006-03-01 00:00:00\t1\thttp://example.com/%d\n", i%977, i%313, i%1009)
			continue
		}
		fmt.Fprintf(&sb, "user%05d\tquery %d about something\thttp://example.com/%d\t%d\n", i%977, i%313, i%1009, 1+i%3)
	}
	return sb.String()
}

// TestFoldMatchesSequential: across many batches and chunks, Fold returns
// the sequential reference's log and counts every accepted row.
func TestFoldMatchesSequential(t *testing.T) {
	input := manyChunks(20000, false)
	base := runtime.NumGoroutine()
	got, rows, err := Fold(strings.NewReader(input), ScanTSV)
	if err != nil {
		t.Fatal(err)
	}
	checkNoLeak(t, base)
	want, err := sequentialFold(input, ScanTSV, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != want.Digest() {
		t.Fatal("Fold diverged from the sequential reference")
	}
	if rows != 20000 {
		t.Fatalf("rows %d, want 20000", rows)
	}
}

// TestFoldMalformedRowManyChunksIn: a malformed row past several default
// chunks (256 KiB each) fails with the line number and text of the
// sequential reference, for both formats, and leaves no goroutine behind.
func TestFoldMalformedRowManyChunksIn(t *testing.T) {
	good, aol := manyChunks(20000, false), manyChunks(20000, true)
	if len(good) < 4*(256<<10) {
		t.Fatalf("fixture is %d bytes, want several default chunks", len(good))
	}
	for _, tc := range []struct {
		name  string
		input string
		scan  func(io.Reader, ScanConfig, func(Row) error) (int, error)
	}{
		{"tsv", good + "broken row\n" + good, ScanTSV},
		{"tsv-bad-count", good + "u\tq\tl\tx\n", ScanTSV},
		{"aol", aol + "short\trow\n" + aol, ScanAOL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, wantErr := sequentialFold(tc.input, tc.scan, 4096)
			if wantErr == nil {
				t.Fatal("fixture unexpectedly parses")
			}
			base := runtime.NumGoroutine()
			l, rows, err := Fold(strings.NewReader(tc.input), tc.scan)
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("error %v, want %v", err, wantErr)
			}
			if l != nil || rows != 0 {
				t.Fatalf("failed fold returned a log (%v) or rows (%d)", l, rows)
			}
			if !strings.Contains(err.Error(), "line 20001") {
				t.Fatalf("error lost its position: %v", err)
			}
			checkNoLeak(t, base)
		})
	}
}

// TestFoldReaderErrorMidStream: a reader that fails several batches in
// surfaces its own error and leaves no goroutine behind.
func TestFoldReaderErrorMidStream(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader(manyChunks(20000, false)), &failingReader{err: boom})
	base := runtime.NumGoroutine()
	l, _, err := Fold(r, ScanTSV)
	if !errors.Is(err, boom) || l != nil {
		t.Fatalf("Fold = %v, %v; want the reader's error", l, err)
	}
	checkNoLeak(t, base)
}
