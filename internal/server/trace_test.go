package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"testing"
	"time"

	"dpslog"
	"dpslog/internal/obs"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{32}$`)

func TestXTraceIDHeader(t *testing.T) {
	e := newTestEnv(t, Config{})
	resp, _ := e.post(t, "/v1/sanitize?eexp=2&delta=0.5&seed=1", "text/tab-separated-values", e.tsv)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	if !traceIDRe.MatchString(id) {
		t.Fatalf("X-Trace-Id = %q, want 32 hex chars", id)
	}
	// Scrape paths are untraced: no header, and no ring-buffer pollution.
	mresp, _ := e.get(t, "/metrics")
	if got := mresp.Header.Get("X-Trace-Id"); got != "" {
		t.Errorf("/metrics unexpectedly traced (X-Trace-Id %q)", got)
	}
}

// TestDebugTraceSpanTree drives ?debug=trace on a real solve
// and checks the acceptance contract: the span tree is present, every stage
// duration is strictly positive, and the direct children of the root
// account for the reported wall time to within 10%.
func TestDebugTraceSpanTree(t *testing.T) {
	// A "small"-profile corpus makes the solve dominate the request by orders
	// of magnitude, so the 10% coverage bound is far from the noise floor.
	corpus, err := dpslog.Generate("small", 1)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEnv(t, Config{})
	var buf bytes.Buffer
	if _, err := dpslog.WriteTSV(&buf, corpus); err != nil {
		t.Fatal(err)
	}
	resp, raw := e.post(t, "/v1/sanitize?eexp=2&delta=0.5&seed=1&debug=trace", "text/tab-separated-values", buf.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var sr sanitizeResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Trace == nil {
		t.Fatal("?debug=trace returned no trace")
	}
	if sr.Trace.TraceID != resp.Header.Get("X-Trace-Id") {
		t.Errorf("trace ID %q != X-Trace-Id header %q", sr.Trace.TraceID, resp.Header.Get("X-Trace-Id"))
	}
	if !sr.Trace.InFlight {
		t.Error("root span should snapshot in_flight (serialized from inside the request)")
	}
	if len(sr.Trace.Children) == 0 {
		t.Fatal("root span has no children")
	}
	stages := map[string]bool{}
	var sumNS int64
	for _, c := range sr.Trace.Children {
		if c.DurationNS <= 0 {
			t.Errorf("stage %q has non-positive duration %d", c.Name, c.DurationNS)
		}
		stages[c.Name] = true
		sumNS += c.DurationNS
	}
	// "noise" is absent: it only fires for end-to-end mode requests.
	for _, want := range []string{"decode", "digest", "queue.wait", "preprocess", "solve", "audit", "sample"} {
		if !stages[want] {
			t.Errorf("trace lacks stage %q (have %v)", want, stages)
		}
	}
	wallNS := sr.ElapsedMS * 1e6
	if ratio := float64(sumNS) / wallNS; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("stage durations sum to %.0f ns = %.1f%% of wall %.0f ns; want within 10%%",
			float64(sumNS), 100*ratio, wallNS)
	}
	// The solve stage carries the nested LP spans.
	var solve *obs.SpanJSON
	for _, c := range sr.Trace.Children {
		if c.Name == "solve" {
			solve = c
		}
	}
	if solve == nil || len(solve.Children) == 0 {
		t.Fatalf("solve span missing or childless: %+v", solve)
	}
}

func TestDebugTracesRingBuffer(t *testing.T) {
	e := newTestEnv(t, Config{})
	for seed := 1; seed <= 3; seed++ {
		resp, _ := e.post(t, fmt.Sprintf("/v1/sanitize?eexp=2&delta=0.5&seed=%d", seed), "text/tab-separated-values", e.tsv)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sanitize status = %d", resp.StatusCode)
		}
	}
	resp, raw := e.get(t, "/v1/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/debug/traces status = %d", resp.StatusCode)
	}
	var body struct {
		Total  int             `json:"total"`
		Traces []*obs.SpanJSON `json:"traces"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Total < 3 || len(body.Traces) < 3 {
		t.Fatalf("want ≥ 3 retained traces, got total=%d len=%d", body.Total, len(body.Traces))
	}
	for _, tr := range body.Traces {
		if !traceIDRe.MatchString(tr.TraceID) {
			t.Errorf("retained trace has bad ID %q", tr.TraceID)
		}
		if tr.InFlight {
			t.Errorf("retained trace %q still in flight", tr.TraceID)
		}
		if tr.DurationNS <= 0 {
			t.Errorf("retained trace %q has non-positive duration", tr.TraceID)
		}
	}
}

func TestReadyzStateless(t *testing.T) {
	e := newTestEnv(t, Config{})
	resp, raw := e.get(t, "/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stateless /readyz = %d: %s", resp.StatusCode, raw)
	}
	var body struct {
		Status      string `json:"status"`
		CorpusStore bool   `json:"corpus_store"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ready" || body.CorpusStore {
		t.Fatalf("stateless readyz = %+v, want ready without corpus store", body)
	}
}

func TestReadyzStatefulGatesOnOpen(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir()})
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, raw := e.get(t, "/readyz")
		if resp.StatusCode == http.StatusOK {
			var body struct {
				Status      string `json:"status"`
				CorpusStore bool   `json:"corpus_store"`
			}
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatal(err)
			}
			if !body.CorpusStore {
				t.Fatalf("stateful readyz reports no corpus store: %s", raw)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready: %d %s", resp.StatusCode, raw)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Once ready, corpus endpoints answer immediately.
	resp, raw := e.get(t, "/v1/corpora")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/corpora after ready = %d: %s", resp.StatusCode, raw)
	}
}

// TestSolverCountersAfterWarmResolve sends an identical second request that
// re-solves the same LP — then asserts the solver-depth counters in
// /metrics through the text-format parser: LP solves, iterations,
// refactorizations and presolve eliminations.
func TestSolverCountersAfterWarmResolve(t *testing.T) {
	// The component cache would serve the identical second solve without
	// touching the LP at all; disable it so the LP answers the repeat.
	e := newTestEnv(t, Config{CompCacheSize: -1})
	for i := 0; i < 2; i++ {
		resp, raw := e.post(t, "/v1/sanitize?eexp=2&delta=0.5&seed=1", "text/tab-separated-values", e.tsv)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sanitize %d status = %d: %s", i, resp.StatusCode, raw)
		}
	}
	resp, raw := e.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	samples, types := parseExposition(t, string(raw))
	checkHistograms(t, samples, types)

	value := func(name string, labels map[string]string) float64 {
		t.Helper()
		for _, s := range samples {
			if s.name != name {
				continue
			}
			match := true
			for k, v := range labels {
				if s.labels[k] != v {
					match = false
				}
			}
			if match {
				return s.value
			}
		}
		t.Fatalf("metric %s%v not found", name, labels)
		return 0
	}

	if v := value("slserve_solver_lp_solves_total", nil); v < 2 {
		t.Errorf("lp_solves_total = %g, want ≥ 2 (two solved requests)", v)
	}
	if v := value("slserve_solver_iterations_total", nil); v <= 0 {
		t.Errorf("iterations_total = %g, want > 0", v)
	}
	if v := value("slserve_solver_refactorizations_total", nil); v < 2 {
		t.Errorf("refactorizations_total = %g, want ≥ 2 (every solve factors at least once)", v)
	}
	if v := value("slserve_solver_presolve_rows_total", nil); v <= 0 {
		t.Errorf("presolve_rows_total = %g, want > 0", v)
	}
	for _, stage := range []string{"solve", "lp.solve", "preprocess", "queue.wait", "sample"} {
		if v := value("slserve_stage_duration_seconds_count", map[string]string{"stage": stage}); v <= 0 {
			t.Errorf("stage %q count = %g, want > 0", stage, v)
		}
	}
	if v := value("slserve_build_info", nil); v != 1 {
		t.Errorf("build_info = %g, want 1", v)
	}
	if v := value("slserve_goroutines", nil); v <= 0 {
		t.Errorf("goroutines = %g, want > 0", v)
	}
}

// TestAppendTraceSpans: an append's trace splits the store's work into
// corpus.merge, corpus.stage and corpus.commit. The first append after a
// PUT formats the new file in full; the next splices its parent's image.
func TestAppendTraceSpans(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir(), Budget: budgetFor(8)})
	if resp, raw := e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", e.tsv); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, raw)
	}
	var ids []string
	for _, delta := range [][]byte{appendDelta, []byte("newuserA\tnewquery\thttp://new.example\t1\n")} {
		resp, raw := e.do(t, http.MethodPost, "/v1/corpora/c/append", "text/tab-separated-values", delta)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append: %d %s", resp.StatusCode, raw)
		}
		ids = append(ids, resp.Header.Get("X-Trace-Id"))
	}
	_, raw := e.get(t, "/v1/debug/traces")
	var body struct {
		Traces []*obs.SpanJSON `json:"traces"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	byID := map[string]*obs.SpanJSON{}
	for _, tr := range body.Traces {
		byID[tr.TraceID] = tr
	}
	for n, want := range []string{"formatted", "spliced"} {
		tr := byID[ids[n]]
		if tr == nil {
			t.Fatalf("append %d: trace %s not retained", n+1, ids[n])
		}
		for _, name := range []string{"corpus.merge", "corpus.stage", "corpus.commit"} {
			if sp := findSpan(tr, name); sp == nil || sp.DurationNS <= 0 {
				t.Fatalf("append %d: span %s missing or empty: %+v", n+1, name, sp)
			}
		}
		stage := findSpan(tr, "corpus.stage")
		if stage.Attrs["image"] != want {
			t.Errorf("append %d: corpus.stage image=%v, want %s", n+1, stage.Attrs["image"], want)
		}
		if b, _ := stage.Attrs["bytes"].(float64); b <= float64(len(e.tsv)) {
			t.Errorf("append %d: corpus.stage bytes=%v, want more than the %d-byte base", n+1, stage.Attrs["bytes"], len(e.tsv))
		}
	}
}
