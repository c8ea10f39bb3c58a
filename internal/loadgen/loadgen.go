// Package loadgen holds the mechanics under internal/replay's open-loop
// runner, the one load engine of cmd/slload: request execution with
// outcome classification, open-loop pacing over recorded offsets, batched
// per-class latency collection with percentiles, and a buffered ndjson
// trace writer. Everything here is deliberately free of flag parsing and
// process exit so it is unit-testable.
package loadgen

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Result is the outcome of one request. Latency is always stamped — error
// paths included — so a timed-out or connection-refused request records
// how long it took to fail rather than zero.
type Result struct {
	Class   string
	Latency time.Duration
	Status  int
	TraceID string
	// Expect is the comma-separated list of acceptable status classes
	// ("2xx", "4xx", "5xx" or an exact code like "429"); empty means "2xx".
	Expect string
	// Err is a transport- or body-level failure. Unexpected status codes
	// are NOT recorded here; Classify reports them as OutcomeMismatch.
	Err error
	// TraceLine is what the collector's trace stream stores for this
	// result: the full replayable record with observed fields stamped.
	TraceLine any
}

// Outcome is the classification of one Result against its expectation.
type Outcome int

const (
	// OutcomeOK: the response status matched the expectation.
	OutcomeOK Outcome = iota
	// OutcomeExhausted: a 429 that the expectation allows — the
	// budget-exhaustion class, counted separately from plain successes.
	OutcomeExhausted
	// OutcomeMismatch: a response arrived but its status is outside the
	// expectation.
	OutcomeMismatch
	// OutcomeFail: the request failed below HTTP (dial, timeout, body read).
	OutcomeFail
)

// MatchStatus reports whether status falls in the expectation class:
// "2xx"/"4xx"/"5xx" ranges or an exact numeric code.
func MatchStatus(status int, class string) bool {
	switch class {
	case "2xx":
		return status >= 200 && status <= 299
	case "4xx":
		return status >= 400 && status <= 499
	case "5xx":
		return status >= 500 && status <= 599
	}
	n, err := strconv.Atoi(class)
	return err == nil && status == n
}

// Classify grades a result against its expected status classes. A
// transport error always fails; an allowed 429 is the distinct
// budget-exhausted outcome so callers can count (and gate on) it
// separately from plain successes.
func Classify(r Result) Outcome {
	if r.Err != nil {
		return OutcomeFail
	}
	expect := r.Expect
	if expect == "" {
		expect = "2xx"
	}
	for _, c := range strings.Split(expect, ",") {
		if MatchStatus(r.Status, strings.TrimSpace(c)) {
			if r.Status == http.StatusTooManyRequests {
				return OutcomeExhausted
			}
			return OutcomeOK
		}
	}
	return OutcomeMismatch
}

// Do executes one prepared request and classifies nothing: it only
// observes. The response body is drained so the connection can be reused.
func Do(client *http.Client, req *http.Request, class, expect string) Result {
	start := time.Now()
	r := Result{Class: class, Expect: expect}
	resp, err := client.Do(req)
	if err != nil {
		r.Latency = time.Since(start)
		r.Err = err
		return r
	}
	defer resp.Body.Close()
	r.TraceID = resp.Header.Get("X-Trace-Id")
	_, cerr := io.Copy(io.Discard, resp.Body)
	r.Latency = time.Since(start)
	r.Status = resp.StatusCode
	if cerr != nil {
		r.Err = cerr
	}
	return r
}

// LambdaEnvelope builds the POST /v1/lambda JSON body via json.Marshal —
// not %q formatting — so non-ASCII corpus bytes stay valid JSON (Go's %q
// on []byte emits \xNN escapes for bytes ≥ 0x80, which JSON does not
// accept).
func LambdaEnvelope(eexp, delta float64, tsv []byte) ([]byte, error) {
	return json.Marshal(struct {
		EExp  float64 `json:"eexp"`
		Delta float64 `json:"delta"`
		TSV   string  `json:"tsv"`
	}{eexp, delta, string(tsv)})
}
