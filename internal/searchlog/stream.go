package searchlog

// Streaming row access to the two on-disk formats. At AOL scale (~20M
// rows) a log must be read one row at a time under bounded memory: ScanTSV
// and ScanAOL deliver the accepted rows via a hand-rolled chunked line
// splitter whose chunk size is explicit: rows crossing a chunk boundary are
// reassembled exactly once, a line longer than MaxLineBytes is an error
// (with its line number) rather than a silent truncation, and parse errors
// keep their 1-based line number no matter how the input was chunked.
// Fold (io.go) runs a scanner on its own goroutine feeding one Builder; it
// is the one path from raw rows to a Log, so there is exactly one parser
// and one aggregation to trust.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Row is one accepted input row, in canonical (user, query, url, count)
// form, together with the 1-based physical line it came from.
type Row struct {
	Line  int
	User  string
	Query string
	URL   string
	Count int
}

// ScanConfig sizes the streaming scanners. The zero value selects the
// defaults.
type ScanConfig struct {
	// ChunkBytes is the read-buffer size: the scanner issues reads of at
	// most this many bytes and never buffers more than one chunk plus one
	// partial line. Default 256 KiB. Any positive value is legal — a chunk
	// smaller than one row exercises the boundary-reassembly path, it does
	// not break it.
	ChunkBytes int
	// MaxLineBytes bounds a single line (default 16 MiB, the historical
	// bufio.Scanner cap of the in-memory readers). A longer line fails with
	// its line number instead of growing the buffer without bound.
	MaxLineBytes int
}

func (c ScanConfig) withDefaults() ScanConfig {
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 256 << 10
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 16 << 20
	}
	return c
}

// ErrStop can be returned by a scan callback to end the scan early. It
// propagates to the caller like any other callback error, so a caller that
// stops early should treat errors.Is(err, ErrStop) as success.
var ErrStop = errors.New("searchlog: stop scan")

// scanLines reads r in ChunkBytes-sized chunks and calls fn once per line,
// with the trailing '\n' (and a preceding '\r', matching bufio.ScanLines)
// removed. The []byte passed to fn aliases the scanner's buffer and is only
// valid until fn returns. A final line without a terminating newline is
// still delivered. Line numbers are 1-based physical lines of the input.
func scanLines(r io.Reader, cfg ScanConfig, fn func(line []byte, lineNo int) error) error {
	cfg = cfg.withDefaults()
	chunk := make([]byte, cfg.ChunkBytes)
	// carry holds the partial line left by the previous chunk; a row split
	// across chunk boundaries is reassembled here, and only here — bytes
	// before the last newline of a chunk are never copied.
	var carry []byte
	lineNo := 0
	emit := func(line []byte) error {
		lineNo++
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		return fn(line, lineNo)
	}
	for {
		n, rerr := r.Read(chunk)
		buf := chunk[:n]
		for len(buf) > 0 {
			i := bytes.IndexByte(buf, '\n')
			if i < 0 {
				if len(carry)+len(buf) > cfg.MaxLineBytes {
					return fmt.Errorf("searchlog: line %d: longer than %d bytes", lineNo+1, cfg.MaxLineBytes)
				}
				carry = append(carry, buf...)
				break
			}
			line := buf[:i]
			buf = buf[i+1:]
			if len(carry) > 0 {
				if len(carry)+len(line) > cfg.MaxLineBytes {
					return fmt.Errorf("searchlog: line %d: longer than %d bytes", lineNo+1, cfg.MaxLineBytes)
				}
				carry = append(carry, line...)
				line = carry
			}
			if err := emit(line); err != nil {
				return err
			}
			carry = carry[:0]
		}
		if rerr == io.EOF {
			if len(carry) > 0 {
				return emit(carry)
			}
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

// parseTSVLine parses one canonical 4-column line into a Row, or reports
// skip (blank/comment).
func parseTSVLine(line string, lineNo int) (Row, bool, error) {
	if line == "" || strings.HasPrefix(line, "#") {
		return Row{}, false, nil
	}
	fields := strings.Split(line, "\t")
	if len(fields) != 4 {
		return Row{}, false, fmt.Errorf("searchlog: line %d: want 4 tab-separated fields, got %d", lineNo, len(fields))
	}
	count, err := strconv.Atoi(fields[3])
	if err != nil {
		return Row{}, false, fmt.Errorf("searchlog: line %d: bad count %q: %v", lineNo, fields[3], err)
	}
	if count < 0 {
		return Row{}, false, fmt.Errorf("searchlog: line %d: negative count %d for user %q pair (%q, %q)", lineNo, count, fields[0], fields[1], fields[2])
	}
	return Row{Line: lineNo, User: fields[0], Query: fields[1], URL: fields[2], Count: count}, true, nil
}

// parseAOLLine parses one historical 5-column AOL line into a Row, or
// reports skip (blank/comment/header/clickless).
func parseAOLLine(line string, lineNo int) (Row, bool, error) {
	if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "AnonID") {
		return Row{}, false, nil
	}
	fields := strings.Split(line, "\t")
	if len(fields) < 5 {
		return Row{}, false, fmt.Errorf("searchlog: line %d: want 5 tab-separated AOL fields, got %d", lineNo, len(fields))
	}
	url := strings.TrimSpace(fields[4])
	if url == "" {
		return Row{}, false, nil // query without click
	}
	// The AnonID must be trimmed like the query and url: real AOL dumps
	// carry whitespace-padded rows, and an untrimmed ID splits one user
	// into several — inflating NumUsers and therefore the number of DP
	// constraints derived from it.
	user := strings.TrimSpace(fields[0])
	if user == "" {
		return Row{}, false, fmt.Errorf("searchlog: line %d: empty AnonID", lineNo)
	}
	query := strings.TrimSpace(fields[1])
	return Row{Line: lineNo, User: user, Query: query, URL: url, Count: 1}, true, nil
}

// ScanTSV streams the canonical 4-column format row by row under bounded
// memory: blank lines and '#' comments are skipped, malformed rows fail
// with their 1-based line number, and fn receives every accepted row in
// input order. It returns the number of rows delivered. The Row's strings
// are freshly allocated and safe to retain.
func ScanTSV(r io.Reader, cfg ScanConfig, fn func(Row) error) (int, error) {
	rows := 0
	err := scanLines(r, cfg, func(line []byte, lineNo int) error {
		row, ok, err := parseTSVLine(string(line), lineNo)
		if err != nil || !ok {
			return err
		}
		rows++
		return fn(row)
	})
	return rows, err
}

// ScanAOL streams the historical AOL 5-column format row by row under the
// same contract as ReadAOL: header and clickless rows are skipped, the
// AnonID and query are trimmed, and every accepted row carries Count 1
// (aggregation is the caller's fold). It returns the number of rows
// delivered.
func ScanAOL(r io.Reader, cfg ScanConfig, fn func(Row) error) (int, error) {
	rows := 0
	err := scanLines(r, cfg, func(line []byte, lineNo int) error {
		row, ok, err := parseAOLLine(string(line), lineNo)
		if err != nil || !ok {
			return err
		}
		rows++
		return fn(row)
	})
	return rows, err
}
