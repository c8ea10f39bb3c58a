package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"

	"dpslog/internal/ledger"
	"dpslog/internal/mechanism"
	"dpslog/internal/replay"
	"dpslog/internal/server"
)

// TestOpenLoopShowsStall pins the absence of coordinated omission: one
// request stalls the only connection, and every request due during the
// stall must carry the stall in its latency (measured from its due time),
// although the server answered each of them at once and the generator
// dispatched each of them on schedule.
func TestOpenLoopShowsStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
	}))
	defer ts.Close()
	var recs []replay.Record
	for i := range 50 {
		recs = append(recs, replay.Record{Class: "probe", Method: "GET", Path: "/", TMS: float64(10 * i)})
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	outs := openLoop(client, ts.URL, recs, nil, 1)

	for i := range outs {
		o := &outs[i]
		if !o.ok() {
			t.Fatalf("request %d: status %d err %v", i, o.status, o.err)
		}
		if late := o.dispatched.Sub(o.due); late > 50*time.Millisecond {
			t.Errorf("request %d dispatched %v late: the generator must keep its schedule", i, late)
		}
	}
	// Request 2 stalls from ~20 ms to ~320 ms; request 5, due at 50 ms,
	// waits for the connection until the stall ends.
	o := &outs[5]
	if lat := o.latency(); lat < stall-100*time.Millisecond {
		t.Errorf("request due during the stall has latency %v, want ≥ %v", lat, stall-100*time.Millisecond)
	}
	if svc := o.serviceTime(); svc > 100*time.Millisecond {
		t.Errorf("request due during the stall has service time %v; the wait must be in latency, not service time", svc)
	}
	if lat := outs[len(outs)-1].latency(); lat > 100*time.Millisecond {
		t.Errorf("last request, due long after the stall, has latency %v", lat)
	}
}

// TestBudgetCoversLineageSpend derives, from each workload's own request
// list, the worst-case spend of every corpus chain summed over all its
// versions (what per-lineage accounting would charge), and asserts that it
// fits the budget slserve is started with, while the storm's ε alone
// exceeds that budget.
func TestBudgetCoversLineageSpend(t *testing.T) {
	budget := serverBudget()
	for _, seed := range []uint64{1, 2} {
		ws := []*workload{mustWorkload(t, "append-chain", seed, 0)}
		w, err := releaseLP(seed, 20)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
		ws = append(ws, mustWorkload(t, "mixed-replay", seed, 60*time.Second)) // the longest allowed run
		for _, w := range ws {
			spend, err := chainSpend(w.allRecords())
			if err != nil {
				t.Fatal(err)
			}
			if len(spend) == 0 {
				t.Fatalf("%s: no release charges a corpus", w.name)
			}
			for name, b := range spend {
				if b.Epsilon > budget.Epsilon+1e-9 || b.Delta > budget.Delta+1e-9 {
					t.Errorf("%s seed %d: chain %s can spend (ε=%g, δ=%g), budget is (ε=%g, δ=%g)",
						w.name, seed, name, b.Epsilon, b.Delta, budget.Epsilon, budget.Delta)
				}
			}
		}
		storms := 0
		for _, rec := range ws[2].timed {
			if rec.Class != "storm_429" {
				continue
			}
			storms++
			var req struct {
				Options mechanism.Options `json:"options"`
			}
			if err := json.Unmarshal([]byte(rec.Body), &req); err != nil {
				t.Fatal(err)
			}
			if req.Options.Epsilon <= budget.Epsilon {
				t.Errorf("storm asks for ε=%g, within the budget ε=%g: it would not be refused", req.Options.Epsilon, budget.Epsilon)
			}
		}
		if storms != stormSize {
			t.Errorf("mixed-replay has %d storm requests, want %d", storms, stormSize)
		}
	}
	// The closed-loop chain is the longest: it must use the budget up
	// exactly, or the budget is sized from something else.
	spend, err := chainSpend(mustWorkload(t, "append-chain", 1, 0).allRecords())
	if err != nil {
		t.Fatal(err)
	}
	if got := spend["chain"].Epsilon; math.Abs(got-budget.Epsilon) > 1e-9 {
		t.Errorf("append-chain worst-case ε %g, budget ε %g", got, budget.Epsilon)
	}
}

// chainSpend is the worst-case (ε, δ) the records can charge against each
// corpus name, summed over every version of its chain. A release identity
// (its options body) is charged at most once per version, so a body sent k
// times to a chain of v versions costs min(k, v) releases; v counts the
// distinct uploaded bodies plus the appends. Requests expecting a 429 are
// refused before any charge.
func chainSpend(recs []replay.Record) (map[string]ledger.Budget, error) {
	uploads := make(map[string]map[string]bool)
	appends := make(map[string]int)
	sends := make(map[string]map[string]int)
	for _, rec := range recs {
		name, action := corpusRoute(rec.Path)
		switch {
		case name == "":
		case action == "" && rec.Method == http.MethodPut:
			if uploads[name] == nil {
				uploads[name] = make(map[string]bool)
			}
			uploads[name][rec.BodyRef+"\x00"+rec.Body] = true
		case action == "append":
			appends[name]++
		case action == "sanitize" && rec.Expect != "429":
			if sends[name] == nil {
				sends[name] = make(map[string]int)
			}
			sends[name][rec.Body]++
		}
	}
	spend := make(map[string]ledger.Budget)
	for name, bodies := range sends {
		versions := max(len(uploads[name]), 1) + appends[name]
		for body, k := range bodies {
			var req struct {
				Options mechanism.Options `json:"options"`
			}
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				return nil, fmt.Errorf("release body for %s: %w", name, err)
			}
			m, err := mechanism.Get(req.Options.Mechanism)
			if err != nil {
				return nil, err
			}
			cost := m.Cost(req.Options)
			n := float64(min(k, versions))
			b := spend[name]
			b.Epsilon += n * cost.Epsilon
			b.Delta += n * cost.Delta
			spend[name] = b
		}
	}
	return spend, nil
}

func mustWorkload(t *testing.T, name string, seed uint64, d time.Duration) *workload {
	t.Helper()
	w, err := newWorkload(name, seed, d)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// inProcessRun sets w up against a fresh in-process slserve handler, runs
// it, checks its outputs and returns the run with its full outcome list.
func inProcessRun(t *testing.T, w *workload, d time.Duration) (*run, []outcome) {
	t.Helper()
	srv, err := server.New(server.Config{DataDir: t.TempDir(), Budget: serverBudget()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := newClient(2)
	defer client.CloseIdleConnections()
	setup := sequential(client, ts.URL, w.setup, w.payloads, time.Now())
	r := &run{setups: []time.Duration{time.Second}, setupOuts: [][]outcome{setup}, rssMB: 1}
	if w.openLoop() {
		r.outs = openLoop(client, ts.URL, w.timed, w.payloads, 2)
	} else {
		r.outs = closedLoop(client, ts.URL, w.ops, w.payloads, d, w.least)
	}
	all := append(slices.Clone(setup), r.outs...)
	if err := check(w, all, t.TempDir()); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return r, all
}

// smallWorkloads are shortened versions of the three workloads.
func smallWorkloads(t *testing.T, seed uint64) []*workload {
	lp, err := releaseLP(seed, 3)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := appendChain(seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []*workload{lp, chain, mustWorkload(t, "mixed-replay", seed, 2*time.Second)}
}

// TestOutputSizeRepeats asserts that output_size_mean — released output
// size per fresh UMP release — repeats exactly across runs of one seed,
// and that the traced run reproduces every release digest of the
// untraced one.
func TestOutputSizeRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("drives an in-process slserve")
	}
	first, second := smallWorkloads(t, 3), smallWorkloads(t, 3)
	for i := range first {
		r1, all := inProcessRun(t, first[i], 0)
		r2, _ := inProcessRun(t, second[i], 0)
		a, b := endToEnd(first[i], r1)["output_size_mean"], endToEnd(second[i], r2)["output_size_mean"]
		if a <= 0 || a != b {
			t.Errorf("%s: output_size_mean %v then %v, want one positive value", first[i].name, a, b)
		}
		layers, err := traceRun(first[i], all, len(r1.setupOuts[0]), t.TempDir())
		if err != nil {
			t.Fatalf("%s traced: %v", first[i].name, err)
		}
		for _, def := range perLayerDefs {
			if _, ok := layers[def.Name]; !ok {
				t.Errorf("%s traced run lacks %s", first[i].name, def.Name)
			}
		}
		if first[i].name == "append-chain" && layers["ump.reused_ratio"] != 15.0/16 {
			t.Errorf("append-chain reused ratio %v, want 15/16", layers["ump.reused_ratio"])
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads the program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || utf8.RuneCountInString(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(names, benchmarked) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, benchmarked)
	}
	if !slices.Equal(bj.EndToEnd, endToEndDefs) {
		t.Errorf("BENCHMARK.json end_to_end %+v, program has %+v", bj.EndToEnd, endToEndDefs)
	}
	if !slices.Equal(bj.PerLayer, perLayerDefs) {
		t.Errorf("BENCHMARK.json per_layer %+v, program has %+v", bj.PerLayer, perLayerDefs)
	}
}

// TestHDQuantile checks the Harrell–Davis estimator against values it must
// reproduce: the centre of a symmetric sample, a constant sample, and a
// tail estimate near the top order statistics.
func TestHDQuantile(t *testing.T) {
	var xs []float64
	for i := range 101 {
		xs = append(xs, float64(i))
	}
	if got := hdQuantile(xs, 0.5); math.Abs(got-50) > 1e-9 {
		t.Errorf("median of 0..100 is %v, want 50", got)
	}
	if got := hdQuantile([]float64{7, 7, 7}, 0.9); math.Abs(got-7) > 1e-12 {
		t.Errorf("p90 of a constant sample is %v, want 7", got)
	}
	if got := hdQuantile(xs, 0.99); got < 97 || got > 100 {
		t.Errorf("p99 of 0..100 is %v, want it near the top order statistics", got)
	}
	if got := betaInc(2, 3, 0.4); math.Abs(got-0.5248) > 1e-12 {
		t.Errorf("I_0.4(2, 3) = %v, want 0.5248", got)
	}
}
