package replay

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"dpslog/internal/loadgen"
)

// Config shapes one replay run.
type Config struct {
	// BaseURL is the slserve under test.
	BaseURL string
	// Client defaults to a 30s-timeout client with a widened connection
	// pool.
	Client *http.Client
	// Speedup compresses the recorded timeline (2 = twice the recorded
	// rate); ≤ 0 means 1.
	Speedup float64
	// N and D bound the replayed section: at most N timed records, none
	// past trace offset D (0 = unlimited). Setup records always run.
	N int
	D time.Duration
	// Window is the batch reporting period.
	Window time.Duration
	// Out and ErrOut receive the progress lines (default stdout/stderr).
	Out, ErrOut io.Writer
	// Capture, when non-nil, receives the replayed records with observed
	// results stamped — replay output is itself a replayable trace.
	Capture *loadgen.TraceWriter
}

// NewClient is the default load-generation HTTP client: per-request
// timeout, connection pool wide enough that open-loop bursts are not
// serialized behind two idle connections per host.
func NewClient(timeout time.Duration) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 256
	return &http.Client{Timeout: timeout, Transport: tr}
}

// BuildRequest materializes one trace record as an HTTP request.
func BuildRequest(base string, rec Record, payloads map[string][]byte) (*http.Request, error) {
	method := rec.Method
	if method == "" {
		method = http.MethodPost
	}
	var body io.Reader
	switch {
	case rec.BodyRef != "":
		p, ok := payloads[rec.BodyRef]
		if !ok {
			return nil, fmt.Errorf("replay: unknown payload ref %q", rec.BodyRef)
		}
		// A fresh reader per request over the shared immutable payload.
		body = bytes.NewReader(p)
	case rec.Body != "":
		body = strings.NewReader(rec.Body)
	}
	req, err := http.NewRequest(method, base+rec.Path, body)
	if err != nil {
		return nil, err
	}
	if rec.ContentType != "" {
		req.Header.Set("Content-Type", rec.ContentType)
	}
	return req, nil
}

// execRecord builds and fires one record, returning the result with the
// replayable record (observed fields stamped) attached as its trace line.
func execRecord(client *http.Client, base string, rec Record, payloads map[string][]byte) loadgen.Result {
	req, err := BuildRequest(base, rec, payloads)
	if err != nil {
		res := loadgen.Result{Class: rec.Class, Expect: rec.Expect, Err: err}
		res.TraceLine = rec.WithResult(res)
		return res
	}
	res := loadgen.Do(client, req, rec.Class, rec.Expect)
	res.TraceLine = rec.WithResult(res)
	return res
}

// Run replays the trace open-loop: setup records first, sequentially,
// then every timed record at its recorded offset divided by the speedup —
// a slow response never delays later arrivals. It returns the per-class
// summary and the wall-clock duration of the timed section.
func Run(tr *Trace, cfg Config) (loadgen.Summary, time.Duration, error) {
	if cfg.BaseURL == "" {
		return loadgen.Summary{}, 0, fmt.Errorf("replay: missing base URL")
	}
	client := cfg.Client
	if client == nil {
		client = NewClient(30 * time.Second)
	}
	payloads, err := tr.Materialize()
	if err != nil {
		return loadgen.Summary{}, 0, err
	}
	setup, timed := tr.sortedRecords()

	results := make(chan loadgen.Result, 1024)
	collector := &loadgen.Collector{
		Window: cfg.Window,
		Out:    cfg.Out,
		ErrOut: cfg.ErrOut,
		Trace:  cfg.Capture,
	}
	done := make(chan loadgen.Summary, 1)
	go func() { done <- collector.Run(results) }()

	// Setup runs sequentially: later records (and the timed section)
	// depend on its side effects, so a failed setup aborts the replay
	// rather than cascading into hundreds of confusing mismatches.
	for i, rec := range setup {
		res := execRecord(client, cfg.BaseURL, rec, payloads)
		outcome := loadgen.Classify(res)
		results <- res
		if outcome != loadgen.OutcomeOK && outcome != loadgen.OutcomeExhausted {
			close(results)
			<-done
			return loadgen.Summary{}, 0, fmt.Errorf("replay: setup record %d (%s %s) failed: status %d err %v",
				i, rec.Method, rec.Path, res.Status, res.Err)
		}
	}

	offsets := make([]time.Duration, len(timed))
	for i, rec := range timed {
		offsets[i] = rec.Offset()
	}
	var wg sync.WaitGroup
	start := time.Now()
	loadgen.Pace(offsets, cfg.Speedup, loadgen.Limits{N: cfg.N, D: cfg.D}, func(i int) {
		rec := timed[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- execRecord(client, cfg.BaseURL, rec, payloads)
		}()
	})
	wg.Wait()
	elapsed := time.Since(start)
	close(results)
	sum := <-done
	return sum, elapsed, nil
}
