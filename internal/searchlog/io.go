package searchlog

import (
	"bufio"
	"io"
	"strconv"
)

// WriteTSV writes the log in the canonical 4-column tab-separated format
//
//	user \t query \t url \t count
//
// sorted by user, query, url — the identical schema the paper's sanitization
// preserves. It returns the number of rows written.
//
// The rows stream straight out of the log's user-major orientation: users
// are stored sorted by ID and each user's pairs sorted by pair index (i.e.
// by query then url), which is exactly canonical order, so no intermediate
// []Record is materialized — writing a log costs O(1) extra memory however
// large it is.
func WriteTSV(w io.Writer, l *Log) (int, error) {
	bw := bufio.NewWriter(w)
	n := 0
	// Rows are assembled with byte appends rather than fmt — this path is
	// also the digest path, where formatting overhead would dominate the
	// hash itself on incremental re-solves.
	row := make([]byte, 0, 128)
	for k := range l.users {
		u := &l.users[k]
		for _, up := range u.Pairs {
			row = appendRow(row[:0], u.ID, &l.pairs[up.Pair], up.Count)
			if _, err := bw.Write(row); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, bw.Flush()
}

// appendRow appends one canonical row, user \t query \t url \t count \n,
// to b. It is the only row formatter: WriteTSV streams its rows, and a
// log's TSV image (image.go) is built from them.
func appendRow(b []byte, user string, p *Pair, count int) []byte {
	b = append(b, user...)
	b = append(b, '\t')
	b = append(b, p.Query...)
	b = append(b, '\t')
	b = append(b, p.URL...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(count), 10)
	return append(b, '\n')
}

// appendUserRows appends user k's canonical rows to b.
func appendUserRows(b []byte, l *Log, k int) []byte {
	u := &l.users[k]
	for _, up := range u.Pairs {
		b = appendRow(b, u.ID, &l.pairs[up.Pair], up.Count)
	}
	return b
}

// ReadTSV parses the canonical 4-column format produced by WriteTSV.
// Blank lines and lines starting with '#' are skipped. Duplicate
// (user, query, url) rows accumulate. It is Fold over ScanTSV — the
// streaming scanner is the only parser — so errors carry the same 1-based
// line numbers.
func ReadTSV(r io.Reader) (*Log, error) {
	l, _, err := Fold(r, ScanTSV)
	return l, err
}

// ReadAOL parses the historical AOL release format
//
//	AnonID \t Query \t QueryTime \t ItemRank \t ClickURL
//
// keeping only rows with a non-empty ClickURL (the paper "only collect[s] the
// tuples with clicks") and aggregating repeated (user, query, url) rows into
// counts. Query time and item rank are ignored, as in the paper. A header
// line starting with "AnonID" is skipped. Like ReadTSV, it is Fold over the
// streaming ScanAOL.
func ReadAOL(r io.Reader) (*Log, error) {
	l, _, err := Fold(r, ScanAOL)
	return l, err
}

// foldBatch is how many rows the scanner goroutine hands over per send,
// amortizing the channel hand-off over many rows. foldDepth is how many
// full batches may wait for the Builder, so short stalls on either side (a
// slow read, a map growth) do not stall the other. Together they bound the
// rows in flight to (foldDepth+2)·foldBatch.
const (
	foldBatch = 1024
	foldDepth = 4
)

// Fold is the one path from raw rows to a Log. scan (ScanTSV or ScanAOL)
// runs on its own goroutine at the default ScanConfig and hands accepted
// rows over in fixed-size batches; the caller's goroutine adds them to a
// single Builder, so parsing and aggregation overlap. It returns the frozen
// Log and the number of accepted rows. A scan error — a malformed row with
// its line number, or the reader's own error — is returned as the scanner
// reported it. The caller drains every batch, so the scanner goroutine has
// always exited when Fold returns.
func Fold(r io.Reader, scan func(io.Reader, ScanConfig, func(Row) error) (int, error)) (*Log, int, error) {
	// Drained batches go back through free, so a long fold reuses a few
	// batch buffers instead of allocating one per foldBatch rows. A
	// new buffer is made only when free is empty, so at most foldDepth+2
	// exist (queued, filling, draining): free holds them all and the
	// hand-back never blocks.
	batches := make(chan []Row, foldDepth)
	free := make(chan []Row, foldDepth+2)
	var scanErr error
	go func() {
		defer close(batches)
		next := func() []Row {
			select {
			case batch := <-free:
				return batch[:0]
			default:
				return make([]Row, 0, foldBatch)
			}
		}
		batch := next()
		_, scanErr = scan(r, ScanConfig{}, func(row Row) error {
			batch = append(batch, row)
			if len(batch) == foldBatch {
				batches <- batch
				batch = next()
			}
			return nil
		})
		if scanErr == nil && len(batch) > 0 {
			batches <- batch
		}
	}()
	b := NewBuilder()
	rows := 0
	for batch := range batches {
		rows += len(batch)
		for _, row := range batch {
			b.Add(row.User, row.Query, row.URL, row.Count)
		}
		free <- batch
	}
	if scanErr != nil {
		return nil, 0, scanErr
	}
	l, err := b.BuildLog()
	return l, rows, err
}
