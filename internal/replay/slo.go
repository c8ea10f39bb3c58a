package replay

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"dpslog/internal/loadgen"
)

// SLO is one per-class service-level objective: latency percentile caps
// and an error-rate ceiling. Class "*" applies to every observed class
// (a class-specific SLO also applies — gates compose, they do not
// override).
type SLO struct {
	Class                  string
	MaxP50, MaxP95, MaxP99 time.Duration // 0 = unchecked
	MaxErrRate             float64       // fraction; < 0 = unchecked
}

// ParseSLOs parses the -slo flag grammar:
//
//	class:metric<limit[,metric<limit...]][;class:...]
//
// e.g. "sanitize:p95<250ms,err<1%;*:p99<2s". Metrics are p50/p95/p99
// (duration limits) and err (percentage or fraction — "1%" and "0.01"
// are the same ceiling on (fail+mismatch)/sent).
func ParseSLOs(spec string) ([]SLO, error) {
	var slos []SLO
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		class, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("replay: bad SLO clause %q (want class:metric<limit,...)", clause)
		}
		slo := SLO{Class: strings.TrimSpace(class), MaxErrRate: -1}
		if slo.Class == "" {
			return nil, fmt.Errorf("replay: bad SLO clause %q: empty class", clause)
		}
		for _, term := range strings.Split(rest, ",") {
			metric, limit, ok := strings.Cut(strings.TrimSpace(term), "<")
			if !ok {
				return nil, fmt.Errorf("replay: bad SLO term %q (want metric<limit)", term)
			}
			metric, limit = strings.TrimSpace(metric), strings.TrimSpace(limit)
			switch metric {
			case "p50", "p95", "p99":
				d, err := time.ParseDuration(limit)
				if err != nil {
					return nil, fmt.Errorf("replay: bad SLO latency limit %q: %v", limit, err)
				}
				switch metric {
				case "p50":
					slo.MaxP50 = d
				case "p95":
					slo.MaxP95 = d
				case "p99":
					slo.MaxP99 = d
				}
			case "err":
				frac := limit
				pct := false
				if strings.HasSuffix(frac, "%") {
					frac, pct = strings.TrimSuffix(frac, "%"), true
				}
				f, err := strconv.ParseFloat(frac, 64)
				if err != nil {
					return nil, fmt.Errorf("replay: bad SLO error limit %q: %v", limit, err)
				}
				if pct {
					f /= 100
				}
				slo.MaxErrRate = f
			default:
				return nil, fmt.Errorf("replay: unknown SLO metric %q (want p50, p95, p99 or err)", metric)
			}
		}
		slos = append(slos, slo)
	}
	return slos, nil
}

// Violation is one failed SLO check, rendered for the gate report.
type Violation struct {
	Class  string
	Metric string
	Limit  string
	Actual string
}

func (v Violation) String() string {
	return fmt.Sprintf("class %s: %s %s exceeds SLO %s", v.Class, v.Metric, v.Actual, v.Limit)
}

// Evaluate checks every SLO against the per-class stats and returns the
// violated gates.
func Evaluate(slos []SLO, classes map[string]*loadgen.ClassStats) []Violation {
	var out []Violation
	for _, g := range check(slos, classes) {
		if !g.OK {
			out = append(out, Violation{Class: g.Class, Metric: g.Metric, Limit: g.Limit, Actual: g.Actual})
		}
	}
	return out
}

// check evaluates every SLO against the per-class stats and records each
// gate with its actual value and outcome. A latency SLO on a class with
// no successful results is a violation — silence must not pass a gate.
func check(slos []SLO, classes map[string]*loadgen.ClassStats) []SLOReport {
	var out []SLOReport
	for _, slo := range slos {
		targets := []string{slo.Class}
		if slo.Class == "*" {
			targets = sortedKeys(classes)
		}
		for _, name := range targets {
			st, ok := classes[name]
			if !ok {
				out = append(out, SLOReport{Class: name, Metric: "presence", Limit: "observed", Actual: "no requests"})
				continue
			}
			lat := loadgen.ComputeStats(st.Latencies)
			latency := func(metric string, limit, actual time.Duration) {
				if limit <= 0 {
					return
				}
				g := SLOReport{Class: name, Metric: metric, Limit: limit.String(), Actual: actual.String(), OK: actual <= limit}
				if lat.Count == 0 {
					g.Actual, g.OK = "no expected responses", false
				}
				out = append(out, g)
			}
			latency("p50", slo.MaxP50, lat.P50)
			latency("p95", slo.MaxP95, lat.P95)
			latency("p99", slo.MaxP99, lat.P99)
			if slo.MaxErrRate >= 0 && st.Sent > 0 {
				rate := float64(st.Errors()) / float64(st.Sent)
				out = append(out, SLOReport{
					Class:  name,
					Metric: "err",
					Limit:  fmt.Sprintf("%.4g", slo.MaxErrRate),
					Actual: fmt.Sprintf("%.4g (%d/%d)", rate, st.Errors(), st.Sent),
					OK:     rate <= slo.MaxErrRate,
				})
			}
		}
	}
	return out
}

func sortedKeys(m map[string]*loadgen.ClassStats) []string {
	s := &loadgen.Summary{Classes: m}
	return s.ClassNames()
}
