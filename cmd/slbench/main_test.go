package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpslog/internal/dp"
	"dpslog/internal/gen"
	"dpslog/internal/searchlog"
	"dpslog/internal/ump"
)

// writeBaseline stores rows as a trajectory file and returns its path.
func writeBaseline(t *testing.T, rows ...benchResult) string {
	t.Helper()
	data, err := json.Marshal(trajectory{Benchmarks: rows})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func row(name string, objective float64) benchResult {
	return benchResult{Name: name, ObjectiveValue: objective, NsPerOp: 1}
}

func TestCheckBaseline(t *testing.T) {
	fast := row("tiny/output-size/monolithic", 13)
	fast.NsPerOp = 1e9 // speed may drift
	for _, tc := range []struct {
		name      string
		base, run []benchResult
		full      bool   // every row filter at its default
		wantErr   string // "" = pass
	}{
		{
			name: "exact match",
			base: []benchResult{row("tiny/output-size/monolithic", 13), row("tiny/sampling", 0)},
			run:  []benchResult{fast, row("tiny/sampling", 0)},
		},
		{
			// A partial run (-profiles) skips baseline rows freely.
			name: "baseline row not emitted",
			base: []benchResult{row("tiny/output-size/monolithic", 13), row("small/output-size/monolithic-dense", 40)},
			run:  []benchResult{row("tiny/output-size/monolithic", 13)},
		},
		{
			name:    "stale baseline row in a full run",
			base:    []benchResult{row("tiny/output-size/monolithic", 13), row("small/output-size/monolithic-dense", 40)},
			run:     []benchResult{row("tiny/output-size/monolithic", 13)},
			full:    true,
			wantErr: "\n  small/output-size/monolithic-dense: stale baseline row, not emitted by a full run",
		},
		{
			name: "full run emitting every baseline row",
			base: []benchResult{row("tiny/output-size/monolithic", 13), row("tiny/sampling", 0)},
			run:  []benchResult{row("tiny/output-size/monolithic", 13), row("tiny/sampling", 0)},
			full: true,
		},
		{
			name:    "drifted objective",
			base:    []benchResult{row("tiny/output-size/monolithic", 13), row("tiny/diversity/monolithic", 7)},
			run:     []benchResult{row("tiny/output-size/monolithic", 13), row("tiny/diversity/monolithic", 8)},
			wantErr: "\n  tiny/diversity/monolithic: objective 8 != baseline 7",
		},
		{
			name:    "row missing from baseline",
			base:    []benchResult{row("tiny/output-size/monolithic", 13)},
			run:     []benchResult{row("tiny/output-size/monolithic", 13), row("tiny/mechanism/new", 5)},
			wantErr: "\n  tiny/mechanism/new: missing from baseline",
		},
		{
			name:    "no shared names",
			base:    []benchResult{row("small/output-size/monolithic", 40)},
			run:     []benchResult{row("tiny/output-size/monolithic", 13)},
			wantErr: "shares no benchmark names",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkBaseline(trajectory{Benchmarks: tc.run}, writeBaseline(t, tc.base...), tc.full)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestCheckBaselineUnreadableFails(t *testing.T) {
	got := trajectory{Benchmarks: []benchResult{row("tiny/output-size/monolithic", 13)}}
	if err := checkBaseline(got, filepath.Join(t.TempDir(), "absent.json"), false); err == nil {
		t.Error("missing baseline file passed")
	}
	garbled := filepath.Join(t.TempDir(), "garbled.json")
	if err := os.WriteFile(garbled, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkBaseline(got, garbled, false); err == nil {
		t.Error("unparsable baseline file passed")
	}
}

// The committed baseline is a valid baseline for itself.
func TestCommittedBaselineMatchesItself(t *testing.T) {
	const path = "../../BENCH_slbench.json"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var traj trajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatal(err)
	}
	if len(traj.Benchmarks) == 0 {
		t.Fatal("committed baseline has no rows")
	}
	if err := checkBaseline(traj, path, true); err != nil {
		t.Fatal(err)
	}
}

func TestRowName(t *testing.T) {
	for _, tc := range []struct{ profile, objective, mode, want string }{
		{"tiny", "output-size", "monolithic", "tiny/output-size/monolithic"},
		{"small", "sweep-table4", "warm", "small/sweep-table4/warm"},
		{"tiny", "sampling", "sampling", "tiny/sampling"},
		{"paper-sharded", "output-size", "append-incremental", "paper-sharded/append/append-incremental"},
	} {
		if got := rowName(tc.profile, tc.objective, tc.mode); got != tc.want {
			t.Errorf("rowName(%q, %q, %q) = %q, want %q", tc.profile, tc.objective, tc.mode, got, tc.want)
		}
	}
}

// TestAppendGateMedian pins the gate's statistic: the median paired ratio,
// armed only from 16 components on.
func TestAppendGateMedian(t *testing.T) {
	if err := appendGate("p", 16, 15, []float64{9, 1, 8, 2, 7}); err != nil {
		t.Errorf("median 7x failed the gate: %v", err)
	}
	if err := appendGate("p", 16, 15, []float64{9, 1, 4, 2, 7}); err == nil {
		t.Error("median 4x passed the gate")
	}
	if err := appendGate("p", 8, 7, []float64{1, 1, 1, 1, 1}); err != nil {
		t.Errorf("gate armed below 16 components: %v", err)
	}
}

// TestAppendGateRejectsUnprimedCache is the gate's negative control: with a
// cache that was never primed, the "incremental" side re-solves every
// component, so on a 16-component corpus the measured median ratio sits
// near 1 and the gate must fail.
func TestAppendGateRejectsUnprimedCache(t *testing.T) {
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set("test.benchtime", prev) })

	p := gen.SmallSharded()
	p.Shards = 16
	raw, err := gen.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	pre, _ := searchlog.Preprocess(raw)
	params := dp.Params{Eps: math.Log(2), Delta: 0.5}
	solve := func(cache *ump.ComponentCache) (*ump.Plan, error) {
		return ump.MaxOutputSize(pre, params, ump.Options{Parallelism: 1, Comp: cache})
	}
	plan, err := solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Components < 16 {
		t.Fatalf("fixture has %d components, want ≥ 16 to arm the gate", plan.Components)
	}
	ratios, _, _ := appendSpeedups(
		appendBench(solve, func() *ump.ComponentCache { return nil }),
		appendBench(solve, func() *ump.ComponentCache { return ump.NewComponentCache(0) }))
	if err := appendGate("unprimed", plan.Components, 0, ratios); err == nil {
		t.Errorf("unprimed cache passed the ≥ 5x gate (ratios %v)", ratios)
	}
}

// TestMedianGateBound pins the Figure 5 gate's statistic: the median of
// the slowest-LP/SPE ratios must reach 1, whatever single rounds read.
func TestMedianGateBound(t *testing.T) {
	if err := medianGate("fig5", []float64{0.5, 3, 1, 0.2, 4}, 1, ""); err != nil {
		t.Errorf("median 1x failed the gate: %v", err)
	}
	if err := medianGate("fig5", []float64{5, 0.9, 0.8, 7, 0.5}, 1, ""); err == nil {
		t.Error("median 0.9x passed the gate")
	}
}
