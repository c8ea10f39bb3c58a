package replay

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"dpslog"
	"dpslog/internal/loadgen"
	"dpslog/internal/server"
)

// TestRecordReplayE2E is the acceptance e2e: synthesize a mixed trace
// (ingest PUT + sync/async sanitize + corpus-referencing sanitize +
// budget/stats queries + a deliberate 429 storm), replay it against a real
// stateful slserve, and require the per-class request counts to reproduce
// the trace exactly, every storm request to be refused with a 429, the
// report to carry per-class percentiles, and a tightened SLO to fail.
func TestRecordReplayE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e replay in -short mode")
	}
	tr, err := Synthesize(SynthConfig{RPS: 150, Duration: 600 * time.Millisecond, Storm429: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := tr.ClassCounts()
	if want["storm_429"] != 8 || want["setup"] != 2 {
		t.Fatalf("synthesized shape: %v", want)
	}

	// The budget covers every release the trace can charge over the two
	// replays below (SynthConfig.EExp spells it out): the main corpus's three
	// distinct releases plus, per replay, one per append_sanitize pair (two
	// records each) — open-loop appends may fold in another order the
	// second time, making versions the first replay never released —
	// summed because the two corpora's lineages can join. The queue is
	// deep enough that the replayed burst backlogs instead of tripping the
	// pool's 503 load-shedding — this test gates exact count reproduction,
	// not overload behavior (server_test covers the 503 path).
	n := float64(want["append_sanitize"])
	budget := dpslog.Budget{Epsilon: (3 + n) * math.Log(2), Delta: 0.75 + n*0.25}
	srv, err := server.New(server.Config{Workers: 4, Queue: 1024, DataDir: t.TempDir(), Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	capPath := t.TempDir() + "/capture.ndjson"
	capture, err := loadgen.CreateTrace(capPath)
	if err != nil {
		t.Fatal(err)
	}
	capture.Write(Header{V: Version, Kind: "header", Base: ts.URL, CreatedBy: "test", Payloads: tr.Header.Payloads})

	sum, elapsed, err := Run(tr, Config{
		BaseURL: ts.URL,
		Speedup: 4,
		Window:  time.Hour,
		Out:     io.Discard,
		ErrOut:  os.Stderr,
		Capture: capture,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("zero elapsed time")
	}

	// Per-class counts must reproduce the trace exactly.
	for class, n := range want {
		st := sum.Classes[class]
		if st == nil || st.Sent != n {
			t.Errorf("class %s: sent %v, want %d", class, st, n)
		}
	}
	if len(sum.Classes) != len(want) {
		t.Errorf("observed classes %v, want %v", sum.ClassNames(), want)
	}
	if sum.Errors() != 0 {
		t.Fatalf("replay saw %d errors (fail=%d mismatch=%d)", sum.Errors(), sum.Fail, sum.Mismatch)
	}
	// The storm must have been refused deterministically — every request a
	// budget-exhausted 429, none a success, none a mismatch.
	storm := sum.Classes["storm_429"]
	if storm.Exhausted != want["storm_429"] || storm.OK != 0 {
		t.Fatalf("storm outcomes: %+v", storm)
	}

	// Per-class percentiles are present for every class that got responses.
	report := BuildReport("test-trace", 4, sum, elapsed, nil)
	if report.Requests != sum.Sent || len(report.Classes) != len(want) {
		t.Fatalf("report shape: %+v", report)
	}
	for _, c := range report.Classes {
		if c.Sent == 0 || c.P50MS <= 0 || c.P95MS < c.P50MS || c.P99MS < c.P95MS {
			t.Errorf("class %s percentiles look wrong: %+v", c.Class, c)
		}
	}

	// Loose SLOs pass; tightened below any real latency they must fail —
	// the gate demonstrably gates.
	loose, _ := ParseSLOs("*:p99<1h,err<1%")
	if v := Evaluate(loose, sum.Classes); len(v) != 0 {
		t.Fatalf("loose SLO violated: %v", v)
	}
	tight, _ := ParseSLOs("*:p95<1ns")
	if v := Evaluate(tight, sum.Classes); len(v) == 0 {
		t.Fatal("p95<1ns SLO passed — the gate does not gate")
	}

	// The report round-trips to disk and matches itself as a baseline.
	benchPath := t.TempDir() + "/BENCH_replay.json"
	if err := report.WriteFile(benchPath); err != nil {
		t.Fatal(err)
	}
	if err := report.CheckBaseline(benchPath); err != nil {
		t.Fatal(err)
	}

	// The captured stream is itself a replayable trace with the same shape:
	// record→replay→capture→replay is closed under the format.
	if err := capture.Close(); err != nil {
		t.Fatal(err)
	}
	recap, err := ReadFile(capPath)
	if err != nil {
		t.Fatal(err)
	}
	recounts := recap.ClassCounts()
	for class, n := range want {
		if recounts[class] != n {
			t.Errorf("captured trace class %s: %d records, want %d", class, recounts[class], n)
		}
	}
	if _, err := recap.Materialize(); err != nil {
		t.Fatalf("captured trace does not materialize: %v", err)
	}
	// Observed results were stamped on the captured records.
	stamped := 0
	for _, rec := range recap.Records {
		if rec.Status != 0 {
			stamped++
		}
	}
	if stamped != len(recap.Records) {
		t.Errorf("only %d/%d captured records carry an observed status", stamped, len(recap.Records))
	}

	// Replaying the SAME trace again against the same server must also
	// succeed: corpus releases are idempotent in the ledger, so a committed
	// trace stays replayable run after run.
	sum2, _, err := Run(tr, Config{BaseURL: ts.URL, Speedup: 8, Window: time.Hour, Out: io.Discard, ErrOut: os.Stderr})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Errors() != 0 {
		t.Fatalf("second replay saw %d errors", sum2.Errors())
	}
}

func TestRunLimitsAndSetupFailure(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	tr := &Trace{
		Header: Header{Kind: "header", Payloads: map[string]Payload{"corpus": {Profile: "tiny", Seed: 1}}},
		Records: []Record{
			{TMS: 1, Class: "stats", Method: "POST", Path: "/v1/stats", ContentType: "text/tab-separated-values", BodyRef: "corpus"},
			{TMS: 2, Class: "stats", Method: "POST", Path: "/v1/stats", ContentType: "text/tab-separated-values", BodyRef: "corpus"},
			{TMS: 3, Class: "stats", Method: "POST", Path: "/v1/stats", ContentType: "text/tab-separated-values", BodyRef: "corpus"},
		},
	}
	// N caps the timed section.
	sum, _, err := Run(tr, Config{BaseURL: ts.URL, N: 2, Window: time.Hour, Out: io.Discard, ErrOut: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sent != 2 {
		t.Fatalf("N=2 replay sent %d", sum.Sent)
	}
	// D caps by trace offset (pre-speedup).
	sum, _, err = Run(tr, Config{BaseURL: ts.URL, D: 2 * time.Millisecond, Speedup: 2, Window: time.Hour, Out: io.Discard, ErrOut: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sent != 2 {
		t.Fatalf("D=2ms replay sent %d", sum.Sent)
	}

	// A failing setup record aborts the run with an error instead of
	// cascading into mismatches: stateless server, corpus PUT answers 503.
	bad := &Trace{
		Header: tr.Header,
		Records: []Record{
			{Class: "setup", Setup: true, Method: "PUT", Path: "/v1/corpora/x", BodyRef: "corpus"},
			{TMS: 1, Class: "stats", Method: "POST", Path: "/v1/stats", BodyRef: "corpus"},
		},
	}
	if _, _, err := Run(bad, Config{BaseURL: ts.URL, Window: time.Hour, Out: io.Discard, ErrOut: io.Discard}); err == nil {
		t.Fatal("setup failure did not abort the replay")
	}
}

func TestCheckBaselineDrift(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *Report) string {
		path := dir + "/" + name
		if err := r.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	run := &Report{Classes: []ClassReport{{Class: "sanitize", Sent: 10}, {Class: "stats", Sent: 5}}}

	if err := run.CheckBaseline(write("same.json", run)); err != nil {
		t.Fatal(err)
	}
	// Count drift.
	err := run.CheckBaseline(write("drift.json", &Report{Classes: []ClassReport{{Class: "sanitize", Sent: 11}, {Class: "stats", Sent: 5}}}))
	if err == nil || !strings.Contains(err.Error(), "sanitize") {
		t.Fatalf("count drift not caught: %v", err)
	}
	// Class present in baseline, absent from the run.
	err = run.CheckBaseline(write("extra.json", &Report{Classes: []ClassReport{{Class: "sanitize", Sent: 10}, {Class: "stats", Sent: 5}, {Class: "storm_429", Sent: 3}}}))
	if err == nil || !strings.Contains(err.Error(), "storm_429") {
		t.Fatalf("missing class not caught: %v", err)
	}
	// Class present in the run, absent from the baseline.
	err = run.CheckBaseline(write("short.json", &Report{Classes: []ClassReport{{Class: "sanitize", Sent: 10}}}))
	if err == nil || !strings.Contains(err.Error(), "stats") {
		t.Fatalf("extra class not caught: %v", err)
	}
	if err := run.CheckBaseline(dir + "/absent.json"); err == nil {
		t.Fatal("missing baseline file not an error")
	}
}

func TestReportJSONShape(t *testing.T) {
	sum := loadgen.Summary{
		ClassStats: loadgen.ClassStats{Sent: 3, OK: 2, Exhausted: 1},
		Classes: map[string]*loadgen.ClassStats{
			"sanitize":  {Sent: 2, OK: 2, Latencies: []time.Duration{time.Millisecond, 2 * time.Millisecond}},
			"storm_429": {Sent: 1, Exhausted: 1, Latencies: []time.Duration{time.Millisecond}},
		},
	}
	// One failing gate (sanitize's p95 is 2ms) and one passing gate: both
	// are recorded with their actual values.
	slos := []SLO{{Class: "sanitize", MaxP95: time.Millisecond, MaxErrRate: -1}, {Class: "storm_429", MaxErrRate: 0.01}}
	r := BuildReport("t.ndjson", 2, sum, time.Second, slos)
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"trace":"t.ndjson"`, `"speedup":2`, `"achieved_rps":3`, `"class":"sanitize"`, `"budget_exhausted":1`, `"p95_ms"`,
		`{"class":"sanitize","metric":"p95","limit":"1ms","actual":"2ms","ok":false}`,
		`{"class":"storm_429","metric":"err","limit":"0.01","actual":"0 (0/1)","ok":true}`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("report JSON missing %s:\n%s", want, raw)
		}
	}
}
