package loadgen

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
	"time"
)

// TestFlushResetsWindowWhenEmpty is the regression test for the inflated
// batch-window bug: flush() used to return early on an empty batch
// WITHOUT resetting batchStart, so the first batch line after an idle
// tick reported the whole quiet spell as its duration.
func TestFlushResetsWindowWhenEmpty(t *testing.T) {
	var out bytes.Buffer
	clock := time.Unix(1000, 0)
	c := &Collector{Out: &out, ErrOut: &out, now: func() time.Time { return clock }}
	c.init()

	// Window 1: one result, flushed after 5s. Baseline.
	clock = clock.Add(5 * time.Second)
	c.add(Result{Class: "sanitize", Status: 200, Latency: time.Millisecond})
	c.flush()

	// Windows 2 and 3: idle ticks — nothing arrives, flush fires anyway.
	clock = clock.Add(5 * time.Second)
	c.flush()
	clock = clock.Add(5 * time.Second)
	c.flush()

	// Window 4: traffic resumes. The line must report ~5s, not ~15s.
	clock = clock.Add(5 * time.Second)
	c.add(Result{Class: "sanitize", Status: 200, Latency: time.Millisecond})
	c.flush()

	lines := regexp.MustCompile(`batch\s+([0-9.]+)s`).FindAllStringSubmatch(out.String(), -1)
	if len(lines) != 2 {
		t.Fatalf("got %d batch lines, want 2 (empty windows must print nothing):\n%s", len(lines), out.String())
	}
	for i, m := range lines {
		dur, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if dur < 4.9 || dur > 5.1 {
			t.Errorf("batch line %d reports %.1fs window, want 5.0s (idle ticks inflated the window)", i, dur)
		}
	}
}

func TestCollectorSummaryAndClassLines(t *testing.T) {
	var out, errOut bytes.Buffer
	results := make(chan Result, 16)
	results <- Result{Class: "sanitize", Status: 200, Latency: 2 * time.Millisecond}
	results <- Result{Class: "sanitize", Status: 500, Latency: time.Millisecond}
	results <- Result{Class: "storm_429", Status: 429, Expect: "429", Latency: time.Millisecond}
	results <- Result{Class: "stats", Status: 200, Latency: time.Millisecond}
	close(results)

	c := &Collector{Window: time.Hour, Out: &out, ErrOut: &errOut}
	sum := c.Run(results)

	if sum.Sent != 4 || sum.OK != 2 || sum.Mismatch != 1 || sum.Exhausted != 1 {
		t.Fatalf("summary counters: %+v", sum.ClassStats)
	}
	if got := sum.Classes["sanitize"]; got == nil || got.Sent != 2 || got.OK != 1 || got.Errors() != 1 {
		t.Fatalf("sanitize class stats: %+v", got)
	}
	if got := sum.Classes["storm_429"]; got == nil || got.Exhausted != 1 || got.Errors() != 0 {
		t.Fatalf("storm_429 class stats: %+v", got)
	}
	if names := sum.ClassNames(); len(names) != 3 || names[0] != "sanitize" || names[1] != "stats" || names[2] != "storm_429" {
		t.Fatalf("ClassNames = %v", names)
	}
	if !bytes.Contains(errOut.Bytes(), []byte("status 500")) {
		t.Errorf("mismatch not reported to ErrOut: %q", errOut.String())
	}
	// The final flush prints one line per class present in the last window.
	if !bytes.Contains(out.Bytes(), []byte("class=sanitize")) || !bytes.Contains(out.Bytes(), []byte("class=storm_429")) {
		t.Errorf("per-class batch lines missing:\n%s", out.String())
	}
}
