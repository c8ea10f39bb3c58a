// Package replay records and replays mixed slserve request traffic. A
// trace is an ndjson file: an optional header line naming the synthetic
// payloads it references (corpus profile + generation seed — megabytes of
// TSV are regenerated deterministically instead of being embedded), then
// one line per request with its trace-time offset, request class, method,
// path, body (inline or by payload reference) and expected status class.
// Traces come from two sources that produce the same format: the
// -record synthesizer (Synthesize) derives mixed scenario traffic from a
// gen profile, and a live slload run — itself a trace built in memory and
// run by Run — captures its requests via -trace-out, observed
// latency/status/trace-ID stamped on each line.
// Replaying either reproduces the request mix — per-class counts exactly
// — with open-loop arrivals at the recorded offsets (optionally
// compressed by a speedup factor), reports per-class percentiles, and
// gates on latency/error-rate SLOs (see slo.go) and a committed per-class
// count baseline (see bench.go).
package replay

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"dpslog"
	"dpslog/internal/loadgen"
)

// Version is the trace format version written by this package.
const Version = 1

// Header is the optional first line of a trace file, identified by
// "kind": "header". Payloads maps body_ref names to deterministically
// regenerable corpora.
type Header struct {
	V         int                `json:"v"`
	Kind      string             `json:"kind"`
	Base      string             `json:"base,omitempty"`
	CreatedBy string             `json:"created_by,omitempty"`
	Payloads  map[string]Payload `json:"payloads,omitempty"`
}

// Payload regenerates one named request body: a gen profile and seed,
// rendered as canonical TSV.
type Payload struct {
	Profile string `json:"profile"`
	Seed    uint64 `json:"seed"`
}

// Record is one request of a trace. TMS is the offset from the trace
// start in milliseconds; Setup records run sequentially before the
// open-loop clock starts (corpus uploads the rest of the trace depends
// on). The observed fields are stamped when a trace is captured from a
// live run and ignored as replay input.
type Record struct {
	TMS         float64 `json:"t_ms"`
	Class       string  `json:"class"`
	Method      string  `json:"method,omitempty"` // default POST
	Path        string  `json:"path"`             // path + optional query
	ContentType string  `json:"content_type,omitempty"`
	Body        string  `json:"body,omitempty"`
	BodyRef     string  `json:"body_ref,omitempty"`
	Expect      string  `json:"expect,omitempty"` // default "2xx"
	Setup       bool    `json:"setup,omitempty"`

	// Observed results (capture output, replay input ignores them).
	LatencyMS float64 `json:"latency_ms,omitempty"`
	Status    int     `json:"status,omitempty"`
	TraceID   string  `json:"trace_id,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// WithResult returns a copy of the record with the observed outcome
// stamped, the form a captured trace stores.
func (r Record) WithResult(res loadgen.Result) Record {
	r.LatencyMS = float64(res.Latency.Microseconds()) / 1000
	r.Status = res.Status
	r.TraceID = res.TraceID
	if res.Err != nil {
		r.Error = res.Err.Error()
	}
	return r
}

// Offset is the record's trace-time offset as a duration.
func (r Record) Offset() time.Duration {
	return time.Duration(r.TMS * float64(time.Millisecond))
}

// Trace is a parsed trace file.
type Trace struct {
	Header  Header
	Records []Record
}

// Read parses an ndjson trace stream. The header line is optional; blank
// lines are skipped. Records keep file order.
func Read(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if lineNo == 1 {
			var probe struct {
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal(line, &probe); err != nil {
				return nil, fmt.Errorf("replay: trace line 1: %w", err)
			}
			if probe.Kind == "header" {
				if err := json.Unmarshal(line, &tr.Header); err != nil {
					return nil, fmt.Errorf("replay: trace header: %w", err)
				}
				if tr.Header.V > Version {
					return nil, fmt.Errorf("replay: trace version %d is newer than supported %d", tr.Header.V, Version)
				}
				continue
			}
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("replay: trace line %d: %w", lineNo, err)
		}
		if rec.Path == "" {
			return nil, fmt.Errorf("replay: trace line %d: missing path", lineNo)
		}
		if rec.Class == "" {
			return nil, fmt.Errorf("replay: trace line %d: missing class", lineNo)
		}
		tr.Records = append(tr.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("replay: reading trace: %w", err)
	}
	return tr, nil
}

// ReadFile parses the trace at path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write renders the trace as ndjson: header first (when it carries
// anything), then the records in order.
func (tr *Trace) Write(w io.Writer) error {
	tw := loadgen.NewTraceWriter(nopCloser{w})
	if tr.Header.Kind == "header" || len(tr.Header.Payloads) > 0 {
		h := tr.Header
		h.V = Version
		h.Kind = "header"
		tw.Write(h)
	}
	for _, rec := range tr.Records {
		tw.Write(rec)
	}
	return tw.Close()
}

// WriteFile writes the trace to path.
func (tr *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nopCloser hides an io.Writer's Closer so TraceWriter does not close a
// file the caller still owns.
type nopCloser struct{ io.Writer }

// Materialize regenerates every payload the header names, keyed by ref.
func (tr *Trace) Materialize() (map[string][]byte, error) {
	payloads := make(map[string][]byte, len(tr.Header.Payloads))
	for name, p := range tr.Header.Payloads {
		l, err := dpslog.Generate(p.Profile, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("replay: payload %q: %w", name, err)
		}
		var buf bytes.Buffer
		if _, err := dpslog.WriteTSV(&buf, l); err != nil {
			return nil, fmt.Errorf("replay: payload %q: %w", name, err)
		}
		payloads[name] = buf.Bytes()
	}
	for i, rec := range tr.Records {
		if rec.BodyRef != "" {
			if _, ok := payloads[rec.BodyRef]; !ok {
				return nil, fmt.Errorf("replay: record %d references unknown payload %q", i, rec.BodyRef)
			}
		}
	}
	return payloads, nil
}

// ClassCounts tallies the records per class — the deterministic shape a
// replayed run must reproduce exactly.
func (tr *Trace) ClassCounts() map[string]int {
	counts := make(map[string]int)
	for _, rec := range tr.Records {
		counts[rec.Class]++
	}
	return counts
}

// sortedRecords returns the non-setup records in trace-time order (stable
// for equal offsets) and the setup records in file order.
func (tr *Trace) sortedRecords() (setup, timed []Record) {
	for _, rec := range tr.Records {
		if rec.Setup {
			setup = append(setup, rec)
		} else {
			timed = append(timed, rec)
		}
	}
	sort.SliceStable(timed, func(a, b int) bool { return timed[a].TMS < timed[b].TMS })
	return setup, timed
}
