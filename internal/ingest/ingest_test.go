package ingest

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"dpslog/internal/gen"
	"dpslog/internal/searchlog"
)

// corpusTSV renders a generated corpus to its canonical TSV bytes.
func corpusTSV(t *testing.T, profile gen.Profile, seed uint64) ([]byte, *searchlog.Log) {
	t.Helper()
	l, err := gen.Generate(profile, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := searchlog.WriteTSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), l
}

// sequential is the reference Ingest must match: the format's scanner at
// an explicit chunk size, feeding one Builder on one goroutine — no
// batches, no channel.
func sequential(input string, f Format, chunk int) (*searchlog.Log, error) {
	scan := searchlog.ScanTSV
	if f == FormatAOL {
		scan = searchlog.ScanAOL
	}
	b := searchlog.NewBuilder()
	if _, err := scan(strings.NewReader(input), searchlog.ScanConfig{ChunkBytes: chunk}, func(row searchlog.Row) error {
		b.Add(row.User, row.Query, row.URL, row.Count)
		return b.Err()
	}); err != nil {
		return nil, err
	}
	return b.BuildLog()
}

// TestIngestMatchesSequentialFold is the central determinism property: for
// a realistic generated corpus, Ingest produces a Log byte-identical (same
// digest) to the generated one and to the sequential reference at any
// chunk size.
func TestIngestMatchesSequentialFold(t *testing.T) {
	raw, want := corpusTSV(t, gen.Tiny(), 7)
	l, st, err := Ingest(bytes.NewReader(raw), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if l.Digest() != want.Digest() || st.Rows != int64(want.NumTriplets()) {
		t.Fatalf("ingest diverged from the generated log: stats %+v, want %d rows", st, want.NumTriplets())
	}
	rng := rand.New(rand.NewSource(7))
	for _, chunk := range []int{1, 17, 4096, 256 << 10, 1 + rng.Intn(64), 1 + rng.Intn(8192)} {
		ref, err := sequential(string(raw), FormatTSV, chunk)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if ref.Digest() != l.Digest() {
			t.Fatalf("chunk=%d: sequential digest %s != ingest %s", chunk, ref.Digest(), l.Digest())
		}
	}
}

// TestIngestAOLEquivalence: the AOL format through the fold matches the
// sequential reference exactly, including header/clickless skips and
// AnonID trimming.
func TestIngestAOLEquivalence(t *testing.T) {
	input := "AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n" +
		"142\tcars \t2006-03-01\t1\tkbb.com\n" +
		"142\tcars\t2006-03-02\t1\tkbb.com\n" + // repeat aggregates
		"142\tweather\t2006-03-02\t\t\n" + // clickless: dropped
		" 99 \tnews\t2006-03-03\t2\tcnn.com\n" + // padded AnonID folds to 99
		"99\tnews\t2006-03-04\t2\tcnn.com\n"
	want, err := sequential(input, FormatAOL, 13)
	if err != nil {
		t.Fatal(err)
	}
	l, st, err := Ingest(strings.NewReader(input), Config{Format: FormatAOL})
	if err != nil {
		t.Fatal(err)
	}
	if l.Digest() != want.Digest() {
		t.Fatal("AOL ingest diverged from the sequential reference")
	}
	if st.Rows != 4 {
		t.Fatalf("%d rows folded, want 4 (clicked rows only)", st.Rows)
	}
	if want.NumUsers() != 2 {
		t.Fatalf("fixture users = %d, want 2", want.NumUsers())
	}
}

// TestIngestParseErrorKeepsPosition: a malformed row mid-stream aborts the
// ingest with the same line-numbered error the sequential reference gives
// at every chunk size.
func TestIngestParseErrorKeepsPosition(t *testing.T) {
	input := "u1\tq\tl\t1\nu2\tq\tl\t2\nbroken row\nu3\tq\tl\t1\n"
	_, _, err := Ingest(strings.NewReader(input), Config{})
	if err == nil {
		t.Fatal("malformed row accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error lost its position: %v", err)
	}
	for _, chunk := range []int{3, 4096} {
		_, wantErr := sequential(input, FormatTSV, chunk)
		if wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("chunk=%d: error %q != sequential %v", chunk, err, wantErr)
		}
	}
}

// TestIngestEmptyInput: zero accepted rows yields an empty log and zero
// stats, not a crash or a division by zero.
func TestIngestEmptyInput(t *testing.T) {
	l, st, err := Ingest(strings.NewReader("# only a comment\n\n"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 || l.NumUsers() != 0 {
		t.Fatalf("empty input produced size %d, users %d", l.Size(), l.NumUsers())
	}
	if st.Rows != 0 || st.RowsPerSec != 0 || st.Users != 0 || st.Pairs != 0 {
		t.Fatalf("empty stats: %+v", st)
	}
}

// TestIngestStats: the row count, shape and heap estimate describe the run.
func TestIngestStats(t *testing.T) {
	raw, want := corpusTSV(t, gen.Tiny(), 3)
	_, st, err := Ingest(bytes.NewReader(raw), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != int64(want.NumTriplets()) {
		t.Fatalf("rows %d, want %d", st.Rows, want.NumTriplets())
	}
	if st.PeakHeapBytes == 0 || st.Elapsed <= 0 || st.RowsPerSec <= 0 {
		t.Fatalf("run statistics not recorded: %+v", st)
	}
	if st.Users != want.NumUsers() || st.Pairs != want.NumPairs() {
		t.Fatalf("shape %d users/%d pairs, want %d/%d", st.Users, st.Pairs, want.NumUsers(), want.NumPairs())
	}
}

// TestParseFormat covers the flag surface.
func TestParseFormat(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Format
		ok   bool
	}{{"", FormatTSV, true}, {"tsv", FormatTSV, true}, {"aol", FormatAOL, true}, {"csv", 0, false}} {
		got, err := ParseFormat(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Fatalf("ParseFormat(%q) = %v, %v", tc.in, got, err)
		}
	}
	if FormatAOL.String() != "aol" || FormatTSV.String() != "tsv" {
		t.Fatal("Format.String names drifted from the flag surface")
	}
}

// TestIngestZeroCountRows: explicit zero-count TSV rows are accepted and
// ignored, exactly like Builder.Add does — including a user whose every
// row is zero, who must vanish from the log.
func TestIngestZeroCountRows(t *testing.T) {
	input := "u1\tq\tl\t0\nu2\tq\tl\t3\nu1\tq2\tl2\t0\n"
	want, err := sequential(input, FormatTSV, 5)
	if err != nil {
		t.Fatal(err)
	}
	l, st, err := Ingest(strings.NewReader(input), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if l.Digest() != want.Digest() || l.NumUsers() != 1 {
		t.Fatalf("zero-count handling diverged: %d users", l.NumUsers())
	}
	if st.Rows != 3 {
		t.Fatalf("accepted rows %d, want 3", st.Rows)
	}
}
