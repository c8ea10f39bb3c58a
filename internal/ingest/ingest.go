// Package ingest is the streaming, sharded corpus loader: it folds a raw
// TSV or AOL search-log stream into the (user, query, url) → count
// histogram a searchlog.Log holds, without ever materializing the raw rows.
// This is the histogram-of-(user, query) aggregation of Götz et al.'s
// search-log study done as a parallel fold, and it is what lets the system
// accept AOL-scale inputs (~20M rows, ~650k users): memory is bounded by
// the aggregated histogram, not by the input, and the fold uses every core.
//
// Shape: one scanner goroutine streams rows off the reader in bounded
// chunks (searchlog.ScanTSV/ScanAOL), hashes each row's user ID (FNV-1a)
// onto one of Shards fold workers, and hands rows over in batches. Each
// worker owns a private user → pair → count map — users are partitioned by
// the hash, so no two workers ever touch the same user and the fold needs
// no locks. When the stream ends the disjoint per-shard maps are merged
// (a union, not a re-aggregation) and frozen by
// searchlog.BuildFromUserCounts, which sorts users and pairs globally.
//
// Determinism: the fold is a sum over a multiset of rows, the merge is a
// disjoint union, and the freeze sorts — so the resulting Log, and
// therefore its canonical TSV and digest, is a pure function of the input
// histogram. Shard count, batch size, chunk size and row order cannot
// change the output; the property and fuzz tests pin exactly that against
// the in-memory ReadTSV/ReadAOL path.
package ingest

import (
	"fmt"
	"io"
	"runtime"
	"sync"
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

// Config sizes one ingest run. The zero value streams canonical TSV with
// GOMAXPROCS fold shards and the default chunking.
type Config struct {
	// Format is the input row format (default FormatTSV).
	Format Format
	// Shards is the number of concurrent fold workers (default GOMAXPROCS,
	// minimum 1). The output is invariant in it; only speed and skew move.
	Shards int
	// Scan configures the chunked reader (chunk size, max line length).
	Scan searchlog.ScanConfig
	// BatchRows is how many rows the scanner accumulates per shard before
	// handing them to the fold worker (default 1024). Larger batches
	// amortize channel traffic; smaller ones bound the scanner's working
	// set more tightly.
	BatchRows int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.BatchRows <= 0 {
		c.BatchRows = 1024
	}
	return c
}

// Stats describes one completed (or failed) ingest run.
type Stats struct {
	// Rows is the number of accepted data rows folded (after comment,
	// header and clickless skips).
	Rows int64 `json:"rows"`
	// Shards is the fold width used.
	Shards int `json:"shards"`
	// ShardRows is the per-shard accepted row count, for skew analysis.
	ShardRows []int64 `json:"shard_rows"`
	// SkewRatio is max(ShardRows)/mean(ShardRows): 1.0 is a perfectly
	// balanced fold, large values mean one shard soaked up a heavy user
	// set. 0 when no rows arrived.
	SkewRatio float64 `json:"skew_ratio"`
	// Elapsed is the wall time of the whole ingest including the merge.
	Elapsed time.Duration `json:"elapsed_ns"`
	// RowsPerSec is Rows/Elapsed.
	RowsPerSec float64 `json:"rows_per_sec"`
	// PeakHeapBytes is the largest live-heap estimate sampled during the
	// run (runtime.ReadMemStats.HeapAlloc) — the "peak resident" signal
	// the bounded-memory guarantee is judged by. It is process-wide, so
	// concurrent activity inflates it; treat it as an upper bound.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// Users and Pairs are the shape of the resulting log.
	Users int `json:"users"`
	Pairs int `json:"pairs"`
}

// heapSampleEvery is how many scanner batches pass between live-heap
// samples; ReadMemStats is too heavy to call per batch.
const heapSampleEvery = 64

// Ingest streams r through the sharded fold and freezes the result into a
// Log. On a parse or transport error the workers are drained and the error
// is returned with its line position intact.
func Ingest(r io.Reader, cfg Config) (*searchlog.Log, Stats, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	type batch []searchlog.Row
	chans := make([]chan batch, cfg.Shards)
	folds := make([]map[string]map[searchlog.PairKey]int, cfg.Shards)
	rowCounts := make([]int64, cfg.Shards)
	var wg sync.WaitGroup
	for s := 0; s < cfg.Shards; s++ {
		chans[s] = make(chan batch, 4)
		folds[s] = make(map[string]map[searchlog.PairKey]int)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fold := folds[s]
			for b := range chans[s] {
				rowCounts[s] += int64(len(b))
				for _, row := range b {
					if row.Count == 0 {
						continue
					}
					m := fold[row.User]
					if m == nil {
						m = make(map[searchlog.PairKey]int)
						fold[row.User] = m
					}
					m[searchlog.PairKey{Query: row.Query, URL: row.URL}] += row.Count
				}
			}
		}(s)
	}

	pending := make([]batch, cfg.Shards)
	flush := func(s int) {
		if len(pending[s]) > 0 {
			chans[s] <- pending[s]
			pending[s] = nil
		}
	}
	var peakHeap uint64
	sampleHeap := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peakHeap {
			peakHeap = ms.HeapAlloc
		}
	}

	var total int64
	batches := 0
	deliver := func(row searchlog.Row) error {
		s := int(shardOf(row.User) % uint64(cfg.Shards))
		pending[s] = append(pending[s], row)
		total++
		if len(pending[s]) >= cfg.BatchRows {
			flush(s)
			if batches++; batches%heapSampleEvery == 0 {
				sampleHeap()
			}
		}
		return nil
	}

	var scanErr error
	switch cfg.Format {
	case FormatAOL:
		_, scanErr = searchlog.ScanAOL(r, cfg.Scan, deliver)
	default:
		_, scanErr = searchlog.ScanTSV(r, cfg.Scan, deliver)
	}
	for s := range chans {
		flush(s)
		close(chans[s])
	}
	wg.Wait()
	if scanErr != nil {
		return nil, Stats{}, scanErr
	}

	// Disjoint union: the user hash partitions users across shards, so the
	// merged map is assembled by moving each shard's user entries over —
	// never by re-summing. A collision here would be a sharding bug; the
	// paranoid check below costs one map lookup per user.
	merged := folds[0]
	for s := 1; s < cfg.Shards; s++ {
		for user, m := range folds[s] {
			if _, dup := merged[user]; dup {
				return nil, Stats{}, fmt.Errorf("ingest: user %q folded on two shards", user)
			}
			merged[user] = m
		}
		folds[s] = nil
	}
	sampleHeap()
	l, err := searchlog.BuildFromUserCounts(merged)
	if err != nil {
		return nil, Stats{}, err
	}

	st := Stats{
		Rows:          total,
		Shards:        cfg.Shards,
		ShardRows:     rowCounts,
		Elapsed:       time.Since(start),
		PeakHeapBytes: peakHeap,
		Users:         l.NumUsers(),
		Pairs:         l.NumPairs(),
	}
	if total > 0 {
		maxRows := int64(0)
		for _, n := range rowCounts {
			if n > maxRows {
				maxRows = n
			}
		}
		st.SkewRatio = float64(maxRows) * float64(cfg.Shards) / float64(total)
	}
	if secs := st.Elapsed.Seconds(); secs > 0 {
		st.RowsPerSec = float64(total) / secs
	}
	return l, st, nil
}

// shardOf is FNV-1a over the user ID: stable across runs and platforms, so
// the shard assignment (and with it the skew profile) of a corpus is
// reproducible.
func shardOf(user string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(user); i++ {
		h ^= uint64(user[i])
		h *= prime64
	}
	return h
}
