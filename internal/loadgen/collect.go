package loadgen

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// ClassStats accumulates outcomes and latencies for one request class
// (or, embedded in Summary, for the whole run). Latencies hold only the
// expected outcomes — what the percentile report and SLO gates measure.
type ClassStats struct {
	Sent, OK, Fail, Exhausted, Mismatch int
	Latencies                           []time.Duration
}

// Errors counts the unexpected outcomes: transport failures plus status
// mismatches. An allowed 429 is not an error.
func (c *ClassStats) Errors() int { return c.Fail + c.Mismatch }

func (c *ClassStats) add(r Result, o Outcome) {
	c.Sent++
	switch o {
	case OutcomeOK:
		c.OK++
		c.Latencies = append(c.Latencies, r.Latency)
	case OutcomeExhausted:
		c.Exhausted++
		c.Latencies = append(c.Latencies, r.Latency)
	case OutcomeMismatch:
		c.Mismatch++
	case OutcomeFail:
		c.Fail++
	}
}

// Summary is the whole-run aggregation: the run-wide counters plus the
// per-class breakdown.
type Summary struct {
	ClassStats
	Classes map[string]*ClassStats
}

// ClassNames lists the observed classes in sorted order.
func (s *Summary) ClassNames() []string {
	names := make([]string, 0, len(s.Classes))
	for name := range s.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Collector aggregates results from concurrent request goroutines,
// printing one batch line per request class per window and returning the
// whole-run summary when the results channel closes. It is the sole
// writer of the trace stream, so concurrent requests never interleave
// ndjson lines.
type Collector struct {
	// Window is the batch reporting period (default 5s).
	Window time.Duration
	// Out and ErrOut receive batch lines and per-failure messages
	// (default os.Stdout / os.Stderr).
	Out, ErrOut io.Writer
	// Trace, when non-nil, receives each result's TraceLine as one ndjson
	// line.
	Trace *TraceWriter

	// now is the clock, swappable by tests.
	now func() time.Time

	sum        Summary
	batch      map[string]*ClassStats
	batchStart time.Time
}

func (c *Collector) init() {
	if c.Out == nil {
		c.Out = os.Stdout
	}
	if c.ErrOut == nil {
		c.ErrOut = os.Stderr
	}
	if c.now == nil {
		c.now = time.Now
	}
	c.sum.Classes = make(map[string]*ClassStats)
	c.batch = make(map[string]*ClassStats)
	c.batchStart = c.now()
}

// Run consumes results until the channel closes, then flushes the last
// window and returns the summary.
func (c *Collector) Run(results <-chan Result) Summary {
	c.init()
	window := c.Window
	if window <= 0 {
		window = 5 * time.Second
	}
	tick := time.NewTicker(window)
	defer tick.Stop()
	for {
		select {
		case r, ok := <-results:
			if !ok {
				c.flush()
				return c.sum
			}
			c.add(r)
		case <-tick.C:
			c.flush()
		}
	}
}

func (c *Collector) add(r Result) {
	if c.Trace != nil {
		c.Trace.Write(r.TraceLine)
	}
	o := Classify(r)
	switch o {
	case OutcomeFail:
		fmt.Fprintf(c.ErrOut, "slload: %s request failed: %v\n", r.Class, r.Err)
	case OutcomeMismatch:
		expect := r.Expect
		if expect == "" {
			expect = "2xx"
		}
		fmt.Fprintf(c.ErrOut, "slload: %s request: status %d (want %s)\n", r.Class, r.Status, expect)
	}
	c.sum.ClassStats.add(r, o)
	class := c.sum.Classes[r.Class]
	if class == nil {
		class = &ClassStats{}
		c.sum.Classes[r.Class] = class
	}
	class.add(r, o)
	b := c.batch[r.Class]
	if b == nil {
		b = &ClassStats{}
		c.batch[r.Class] = b
	}
	b.add(r, o)
}

// flush prints the window's batch lines and starts a new window. The
// window resets even when it was empty: an idle tick must not inflate the
// next line's reported timespan (the pre-extraction slload returned early
// from empty flushes without resetting the window start, so the first
// batch after a quiet spell reported a multi-window duration).
func (c *Collector) flush() {
	dur := c.now().Sub(c.batchStart).Seconds()
	c.batchStart = c.now()
	if len(c.batch) == 0 {
		return
	}
	batch := Summary{Classes: c.batch}
	for _, name := range batch.ClassNames() {
		b := c.batch[name]
		fmt.Fprintf(c.Out, "slload: batch %5.1fs class=%s sent=%d ok=%d fail=%d budget_exhausted=%d  %s\n",
			dur, name, b.Sent, b.OK, b.Errors(), b.Exhausted, FormatLatencies(b.Latencies))
	}
	c.batch = make(map[string]*ClassStats)
}
