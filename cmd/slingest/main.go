// Command slingest is the bulk corpus loader: it streams AOL-scale search
// logs — generated on the fly or read from disk — into a file, to stdout,
// or straight into a running slserve via a chunked PUT, all under bounded
// memory. Nothing in the pipeline ever holds the whole corpus: generation
// emits click events one user at a time (gen.Stream), uploads flow through
// an io.Pipe into the HTTP body, and local ingestion uses the one
// streaming fold (internal/ingest: one scanner goroutine feeding one
// Builder), the same fold the server runs on an upload.
//
// Usage:
//
//	slingest [-profile small] [-seed 1] [-users N] [-min-bytes N]
//	         [-file F] [-format tsv|aol]
//	         [-o FILE|-] | [-url http://host:port -corpus NAME] | [-stats]
//	         [-quiet]
//
// Source: -file reads an existing log; otherwise rows are generated from
// -profile/-seed (slingest -h lists the profile names), with -users
// overriding the profile's user count and -min-bytes repeating the
// profile in disjoint namespaced blocks until at least that many bytes
// have been emitted — how a laptop-sized profile becomes a
// multi-hundred-MB corpus.
//
// Sink: -url/-corpus PUTs the stream to /v1/corpora/{name} (chunked
// transfer, -format sent as the Content-Type — application/x-aol-log for
// AOL — so the server's ingest does the folding); -o writes the raw
// rows to a file or stdout; -stats folds locally and prints the digest,
// shape and ingest statistics as JSON.
//
// On exit slingest reports rows, bytes, wall time, throughput and the
// process's peak RSS (VmHWM) — the number the bounded-memory claim is
// audited by: loading a corpus much larger than the reported peak proves
// the path never materializes it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dpslog/internal/gen"
	"dpslog/internal/ingest"
)

// aolHeader matches the historical release's first line.
const aolHeader = "AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n"

func main() {
	profile := flag.String("profile", "small", "generation profile: "+strings.Join(gen.ProfileNames(), ", "))
	seed := flag.Uint64("seed", 1, "generation seed")
	users := flag.Int("users", 0, "override the profile's user count (0 = profile default)")
	minBytes := flag.Int64("min-bytes", 0, "repeat the profile in disjoint blocks until at least this many bytes are emitted (0 = one block)")
	file := flag.String("file", "", "read rows from this file instead of generating")
	format := flag.String("format", "tsv", "row format: tsv (canonical 4-column) or aol (historical 5-column)")
	out := flag.String("o", "", "write rows to this file ('-' = stdout)")
	url := flag.String("url", "", "slserve base URL; with -corpus, stream the rows into PUT /v1/corpora/{name}")
	corpusName := flag.String("corpus", "", "corpus name for the server upload")
	stats := flag.Bool("stats", false, "fold the source locally (the server's streaming ingest) and print digest + stats JSON")
	quiet := flag.Bool("quiet", false, "suppress the progress/summary lines on stderr")
	flag.Parse()

	f, err := ingest.ParseFormat(*format)
	if err != nil {
		fatal(err)
	}
	sinks := 0
	for _, on := range []bool{*out != "", *url != "", *stats} {
		if on {
			sinks++
		}
	}
	if sinks != 1 {
		fatal(errors.New("pick exactly one sink: -o FILE, -url/-corpus, or -stats"))
	}
	if (*url != "") != (*corpusName != "") {
		fatal(errors.New("-url and -corpus go together"))
	}

	start := time.Now()
	var rows, bytesOut atomic.Int64
	switch {
	case *stats:
		src, err := openSource(*file, *profile, *seed, *users, *minBytes, f, &rows, &bytesOut)
		if err != nil {
			fatal(err)
		}
		defer src.Close()
		l, st, err := ingest.Ingest(src, ingest.Config{Format: f})
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{
			"digest": l.Digest(),
			"size":   l.Size(),
			"stats":  st,
		})
	case *url != "":
		src, err := openSource(*file, *profile, *seed, *users, *minBytes, f, &rows, &bytesOut)
		if err != nil {
			fatal(err)
		}
		defer src.Close()
		if err := push(*url, *corpusName, f, src, srcLength(*file)); err != nil {
			fatal(err)
		}
	default:
		w, closeW, err := openSink(*out)
		if err != nil {
			fatal(err)
		}
		src, err := openSource(*file, *profile, *seed, *users, *minBytes, f, &rows, &bytesOut)
		if err != nil {
			fatal(err)
		}
		if _, err := io.Copy(w, src); err != nil {
			fatal(err)
		}
		src.Close()
		if err := closeW(); err != nil {
			fatal(err)
		}
	}
	if !*quiet {
		elapsed := time.Since(start)
		nBytes := bytesOut.Load()
		mbs := float64(nBytes) / (1 << 20) / max(elapsed.Seconds(), 1e-9)
		fmt.Fprintf(os.Stderr, "slingest: %d rows, %d bytes in %.1fs (%.1f MiB/s), peak RSS %s\n",
			rows.Load(), nBytes, elapsed.Seconds(), mbs, formatBytes(peakRSSBytes()))
	}
}

// openSource returns the row stream: the named file, or a pipe fed by the
// block-repeated generator. rows/bytesOut are updated as the stream is
// consumed.
func openSource(file, profile string, seed uint64, users int, minBytes int64, f ingest.Format, rows, bytesOut *atomic.Int64) (io.ReadCloser, error) {
	if file != "" {
		fh, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		return countingReader{r: fh, c: fh, rows: rows, bytes: bytesOut}, nil
	}
	p, err := gen.Profiles(profile)
	if err != nil {
		return nil, err
	}
	if users > 0 {
		p.Users = users
	}
	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriterSize(pw, 1<<20)
		_, err := writeBlocks(bw, p, seed, minBytes, f, rows, bytesOut)
		if err == nil {
			err = bw.Flush()
		}
		pw.CloseWithError(err)
	}()
	return pr, nil
}

// writeBlocks streams the profile once, then — while the running byte
// count is below minBytes — again and again under disjoint "b{i}-"
// namespaces (fresh users, queries and urls per block, decorrelated
// seeds), so an arbitrary-size corpus is generated from a fixed profile
// without ever holding it. Deterministic in (profile, seed, format,
// minBytes).
func writeBlocks(w *bufio.Writer, p gen.Profile, seed uint64, minBytes int64, f ingest.Format, rows, bytesOut *atomic.Int64) (int64, error) {
	var written int64
	count := func(n int, err error) error {
		written += int64(n)
		bytesOut.Add(int64(n))
		return err
	}
	if f == ingest.FormatAOL {
		if err := count(w.WriteString(aolHeader)); err != nil {
			return written, err
		}
	}
	for block := 0; ; block++ {
		prefix := ""
		blockSeed := seed
		if block > 0 {
			prefix = fmt.Sprintf("b%03d-", block)
			blockSeed = seed ^ (uint64(block) * 0x9e3779b97f4a7c15)
		}
		emit := func(user, query, url string, _ int) error {
			rows.Add(1)
			if f == ingest.FormatAOL {
				return count(fmt.Fprintf(w, "%s%s\t%s%s\t2006-03-01 00:00:00\t1\t%s%s\n", prefix, user, prefix, query, prefix, url))
			}
			return count(fmt.Fprintf(w, "%s%s\t%s%s\t%s%s\t1\n", prefix, user, prefix, query, prefix, url))
		}
		if err := gen.Stream(p, blockSeed, emit); err != nil {
			return written, err
		}
		if written >= minBytes {
			return written, nil
		}
	}
}

// push streams the source into PUT /v1/corpora/{name}. length < 0 sends
// chunked transfer encoding (the generated-source case); the server's
// admission gate then books a default reservation for it.
func push(base, name string, f ingest.Format, src io.Reader, length int64) error {
	u := strings.TrimSuffix(base, "/") + "/v1/corpora/" + name
	req, err := http.NewRequest(http.MethodPut, u, io.NopCloser(src))
	if err != nil {
		return err
	}
	contentType := "text/tab-separated-values"
	if f == ingest.FormatAOL {
		contentType = "application/x-aol-log"
	}
	req.Header.Set("Content-Type", contentType)
	if length > 0 {
		req.ContentLength = length
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	os.Stdout.Write(body)
	return nil
}

// srcLength is the Content-Length to declare: the file size when the
// source is a file, -1 (chunked) when it is generated.
func srcLength(file string) int64 {
	if file == "" {
		return -1
	}
	if info, err := os.Stat(file); err == nil {
		return info.Size()
	}
	return -1
}

func openSink(out string) (io.Writer, func() error, error) {
	if out == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	fh, err := os.Create(out)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriterSize(fh, 1<<20)
	return bw, func() error {
		if err := bw.Flush(); err != nil {
			fh.Close()
			return err
		}
		return fh.Close()
	}, nil
}

// countingReader tallies rows (newlines) and bytes as the consumer pulls.
type countingReader struct {
	r     io.Reader
	c     io.Closer
	rows  *atomic.Int64
	bytes *atomic.Int64
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.bytes.Add(int64(n))
	lines := int64(0)
	for _, b := range p[:n] {
		if b == '\n' {
			lines++
		}
	}
	cr.rows.Add(lines)
	return n, err
}

func (cr countingReader) Close() error { return cr.c.Close() }

// peakRSSBytes reads the process's high-water resident set (VmHWM) from
// /proc, falling back to the Go runtime's OS-memory estimate elsewhere.
func peakRSSBytes() uint64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseUint(fields[0], 10, 64); err == nil {
						return kb << 10
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Sys
}

func formatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slingest:", err)
	os.Exit(1)
}
