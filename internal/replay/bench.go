package replay

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"dpslog/internal/loadgen"
)

// Report is the BENCH_replay.json document: the per-class outcome of one
// replayed trace. Latencies are machine-dependent and gated by SLO flags;
// the per-class request counts are deterministic for a given trace and
// are what the committed baseline pins.
type Report struct {
	Trace       string        `json:"trace"`
	Speedup     float64       `json:"speedup"`
	Requests    int           `json:"requests"`
	DurationS   float64       `json:"duration_s"`
	AchievedRPS float64       `json:"achieved_rps"`
	Classes     []ClassReport `json:"classes"`
	SLOs        []SLOReport   `json:"slos,omitempty"`
}

// ClassReport is one request class's counts and percentiles.
type ClassReport struct {
	Class     string  `json:"class"`
	Sent      int     `json:"sent"`
	OK        int     `json:"ok"`
	Exhausted int     `json:"budget_exhausted"`
	Fail      int     `json:"fail"`
	Mismatch  int     `json:"mismatch"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	P99MS     float64 `json:"p99_ms"`
	MaxMS     float64 `json:"max_ms"`
}

// SLOReport records one evaluated gate with its actual value, passing
// gates and violations alike, so the artifact shows what the run was held
// to.
type SLOReport struct {
	Class  string `json:"class"`
	Metric string `json:"metric"`
	Limit  string `json:"limit"`
	Actual string `json:"actual,omitempty"`
	OK     bool   `json:"ok"`
}

// BuildReport renders a replay summary as the benchmark document, with
// every gate of the SLOs evaluated against it, passing or not.
func BuildReport(traceName string, speedup float64, sum loadgen.Summary, elapsed time.Duration, slos []SLO) *Report {
	r := &Report{
		Trace:     traceName,
		Speedup:   speedup,
		Requests:  sum.Sent,
		DurationS: elapsed.Seconds(),
	}
	if elapsed > 0 {
		r.AchievedRPS = float64(sum.Sent) / elapsed.Seconds()
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	for _, name := range sum.ClassNames() {
		st := sum.Classes[name]
		lat := loadgen.ComputeStats(st.Latencies)
		r.Classes = append(r.Classes, ClassReport{
			Class:     name,
			Sent:      st.Sent,
			OK:        st.OK,
			Exhausted: st.Exhausted,
			Fail:      st.Fail,
			Mismatch:  st.Mismatch,
			P50MS:     ms(lat.P50),
			P95MS:     ms(lat.P95),
			P99MS:     ms(lat.P99),
			MaxMS:     ms(lat.Max),
		})
	}
	r.SLOs = check(slos, sum.Classes)
	return r
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// CheckBaseline compares the run's per-class sent counts against a
// committed baseline report: same classes, same counts, both directions.
// Counts are deterministic for a given trace, so drift means the replayer
// dropped or duplicated traffic — exactly what the gate exists to catch.
func (r *Report) CheckBaseline(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("replay baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("replay baseline %s: %w", path, err)
	}
	got := make(map[string]int, len(r.Classes))
	for _, c := range r.Classes {
		got[c.Class] = c.Sent
	}
	var mismatches []string
	seen := make(map[string]bool, len(base.Classes))
	for _, c := range base.Classes {
		seen[c.Class] = true
		if n, ok := got[c.Class]; !ok {
			mismatches = append(mismatches, fmt.Sprintf("class %s: baseline sent %d, run has no such class", c.Class, c.Sent))
		} else if n != c.Sent {
			mismatches = append(mismatches, fmt.Sprintf("class %s: sent %d != baseline %d", c.Class, n, c.Sent))
		}
	}
	for _, c := range r.Classes {
		if !seen[c.Class] {
			mismatches = append(mismatches, fmt.Sprintf("class %s: sent %d, absent from baseline", c.Class, c.Sent))
		}
	}
	if len(mismatches) > 0 {
		return fmt.Errorf("replay baseline %s: per-class counts drifted:\n  %s", path, strings.Join(mismatches, "\n  "))
	}
	return nil
}
