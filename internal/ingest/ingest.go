// Package ingest is the streaming corpus loader: it folds a raw TSV or AOL
// search-log stream into the (user, query, url) → count histogram a
// searchlog.Log holds, without ever materializing the raw rows. This is
// the histogram-of-(user, query) aggregation of Götz et al.'s search-log
// study, and it is what lets the system accept AOL-scale inputs (~20M
// rows, ~650k users): memory is bounded by the aggregated histogram, not
// by the input.
//
// The fold itself is searchlog.Fold, the one path from raw rows to a Log
// that ReadTSV and ReadAOL use too: one scanner goroutine parses rows in
// bounded chunks and hands them in batches to one Builder on the caller's
// goroutine. Ingest adds the format switch and the run statistics.
package ingest

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"dpslog/internal/searchlog"
)

// Format selects the input row format.
type Format int

const (
	// FormatTSV is the canonical 4-column user\tquery\turl\tcount form.
	FormatTSV Format = iota
	// FormatAOL is the historical 5-column AOL release form.
	FormatAOL
)

// ParseFormat maps the flag names onto a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "tsv":
		return FormatTSV, nil
	case "aol":
		return FormatAOL, nil
	}
	return 0, fmt.Errorf("ingest: unknown format %q (have tsv, aol)", s)
}

// String returns the flag name of the format.
func (f Format) String() string {
	if f == FormatAOL {
		return "aol"
	}
	return "tsv"
}

// Config selects the input of one ingest run. The zero value streams
// canonical TSV.
type Config struct {
	// Format is the input row format (default FormatTSV).
	Format Format
}

// Stats describes one completed ingest run.
type Stats struct {
	// Rows is the number of accepted data rows folded (after comment,
	// header and clickless skips).
	Rows int64 `json:"rows"`
	// Elapsed is the wall time of the whole ingest, freezing included.
	Elapsed time.Duration `json:"elapsed_ns"`
	// RowsPerSec is Rows/Elapsed.
	RowsPerSec float64 `json:"rows_per_sec"`
	// PeakHeapBytes estimates the fold's peak live heap: the process's
	// runtime.MemStats.HeapAlloc, sampled once when the fold returns, with
	// the Builder's maps and the frozen Log both still reachable or not
	// yet collected. It is process-wide, so concurrent activity inflates
	// it, and garbage collected mid-fold is not in it: an estimate, not a
	// bound.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// Users and Pairs are the shape of the resulting log.
	Users int `json:"users"`
	Pairs int `json:"pairs"`
}

// Ingest streams r through searchlog.Fold in the configured format. On a
// parse or transport error it returns the error with its line position
// intact.
func Ingest(r io.Reader, cfg Config) (*searchlog.Log, Stats, error) {
	start := time.Now()
	scan := searchlog.ScanTSV
	if cfg.Format == FormatAOL {
		scan = searchlog.ScanAOL
	}
	l, rows, err := searchlog.Fold(r, scan)
	if err != nil {
		return nil, Stats{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := Stats{
		Rows:          int64(rows),
		Elapsed:       time.Since(start),
		PeakHeapBytes: ms.HeapAlloc,
		Users:         l.NumUsers(),
		Pairs:         l.NumPairs(),
	}
	if secs := st.Elapsed.Seconds(); secs > 0 {
		st.RowsPerSec = float64(rows) / secs
	}
	return l, st, nil
}
