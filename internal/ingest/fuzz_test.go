package ingest

import (
	"strings"
	"testing"
)

// FuzzIngestTSV: over arbitrary (malformed, truncated, binary) input,
// Ingest must agree with the sequential reference at an arbitrary chunk
// size exactly — both reject with the same error text, or both accept with
// byte-identical digests. This is the equivalence oracle for the whole
// streaming path: any divergence in skip rules, error positions, chunk
// reassembly or the batch hand-over shows up here.
func FuzzIngestTSV(f *testing.F) {
	f.Add("u\tq\tl\t2\n", 7)
	f.Add("# c\n\nu\tq\tl\t1\nu\tq\tl\t3\n", 1)
	f.Add("a\tb\tc\tx\n", 4096)
	f.Add("a\tb\tc\t-1\n", 3)
	f.Add("u\tq\tl\t1", 2) // truncated final row
	f.Add(strings.Repeat("u\tq\tl\t1\n", 50), 13)
	f.Add("u\r\tq\tl\t1\r\n", 1)
	f.Fuzz(func(t *testing.T, input string, chunk int) {
		// Clamp the chunk size rather than reject it, so the fuzzer spends
		// its budget on input bytes, not on argument validity.
		chunk = 1 + abs(chunk)%8192
		want, wantErr := sequential(input, FormatTSV, chunk)
		got, _, err := Ingest(strings.NewReader(input), Config{})
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("verdicts diverged: ingest=%v, sequential=%v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("error text diverged: %q vs %q", err, wantErr)
			}
			return
		}
		if got.Digest() != want.Digest() {
			t.Fatalf("digest diverged at chunk=%d", chunk)
		}
	})
}

// FuzzIngestAOL: same oracle for the 5-column AOL format, whose skip rules
// (header, clickless rows, AnonID trimming) are richer.
func FuzzIngestAOL(f *testing.F) {
	f.Add("AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n1\tcar\t2006\t1\tkbb.com\n", 16)
	f.Add("1\tq\tt\t\t\n", 1)
	f.Add(" 1 \tq\tt\t1\tu\n1\tq\tt\t1\tu\n", 3)
	f.Add("short\trow\n", 5)
	f.Fuzz(func(t *testing.T, input string, chunk int) {
		chunk = 1 + abs(chunk)%8192
		want, wantErr := sequential(input, FormatAOL, chunk)
		got, _, err := Ingest(strings.NewReader(input), Config{Format: FormatAOL})
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("verdicts diverged: ingest=%v, sequential=%v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("error text diverged: %q vs %q", err, wantErr)
			}
			return
		}
		if got.Digest() != want.Digest() {
			t.Fatalf("digest diverged at chunk=%d", chunk)
		}
	})
}

func abs(n int) int {
	if n < 0 {
		if n == -n { // math.MinInt
			return 0
		}
		return -n
	}
	return n
}
