package dp_test

// External-package tests wiring dp's §4.2 machinery to real UMP solves
// (package dp cannot import ump directly without a cycle).

import (
	"math"
	"testing"

	"dpslog/internal/dp"
	"dpslog/internal/gen"
	"dpslog/internal/rng"
	"dpslog/internal/searchlog"
	"dpslog/internal/ump"
)

// oumpSolve adapts O-UMP into dp.SolveFunc (plans keyed by pair identity).
func oumpSolve(params dp.Params) dp.SolveFunc {
	return func(l *searchlog.Log) (map[searchlog.PairKey]int, error) {
		pre, _ := searchlog.Preprocess(l)
		plan, err := ump.MaxOutputSize(pre, params, ump.Options{})
		if err != nil {
			return nil, err
		}
		out := make(map[searchlog.PairKey]int, pre.NumPairs())
		for i, x := range plan.Counts {
			if x > 0 {
				out[pre.Pair(i).Key()] = x
			}
		}
		return out, nil
	}
}

func TestBoundSensitivityWithRealSolve(t *testing.T) {
	_, pre, _, err := gen.GeneratePreprocessed(gen.Tiny(), 21)
	if err != nil {
		t.Fatal(err)
	}
	params := dp.Params{Eps: math.Log(2), Delta: 0.5}
	solve := oumpSolve(params)

	// A generous d keeps everyone; d = 0 likely drops someone whose removal
	// shifts any count at all.
	kept, dropped, err := dp.BoundSensitivity(pre, pre.Size(), solve)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 0 {
		t.Errorf("d = |D| dropped users %v", dropped)
	}
	if kept.NumUsers() != pre.NumUsers() {
		t.Errorf("users changed under a vacuous bound")
	}

	tight, droppedTight, err := dp.BoundSensitivity(pre, 0, solve)
	if err != nil {
		t.Fatal(err)
	}
	if tight.NumUsers()+len(droppedTight) != pre.NumUsers() {
		t.Errorf("user accounting broken: %d kept + %d dropped != %d",
			tight.NumUsers(), len(droppedTight), pre.NumUsers())
	}
	// After bounding at d, re-solving on the kept log must produce a plan
	// whose per-pair difference against any neighbor is verifiable — at
	// minimum, the kept log still admits a DP-feasible solve.
	plan, err := ump.MaxOutputSize(mustPre(t, tight), params, ump.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.VerifyLog(mustPre(t, tight), params, plan.Counts); err != nil {
		t.Errorf("post-bounding plan fails audit: %v", err)
	}
}

func mustPre(t *testing.T, l *searchlog.Log) *searchlog.Log {
	t.Helper()
	pre, _ := searchlog.Preprocess(l)
	return pre
}

// TestEndToEndNoiseThenProjectionAudits drives the full §4.2 pipeline:
// solve, noise, project, audit — across several noise scales.
func TestEndToEndNoiseThenProjectionAudits(t *testing.T) {
	_, pre, _, err := gen.GeneratePreprocessed(gen.Tiny(), 33)
	if err != nil {
		t.Fatal(err)
	}
	params := dp.Params{Eps: math.Log(2), Delta: 0.5}
	plan, err := ump.MaxOutputSize(pre, params, ump.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := dp.Build(pre, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, epsPrime := range []float64{0.1, 0.5, 1, 4} {
		g := rng.New(uint64(epsPrime * 1000))
		noisy, err := dp.NoisyCounts(g, plan.Counts, 2, epsPrime)
		if err != nil {
			t.Fatal(err)
		}
		fixed := dp.ProjectFeasible(cons, noisy)
		if v := cons.Verify(fixed); len(v) != 0 {
			t.Errorf("ε′=%g: projected plan violates constraints: %v", epsPrime, v)
		}
		for i, x := range fixed {
			if x < 0 {
				t.Errorf("ε′=%g: negative count at %d", epsPrime, i)
			}
		}
	}
}
