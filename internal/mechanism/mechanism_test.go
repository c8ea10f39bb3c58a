package mechanism

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"dpslog/internal/gen"
	"dpslog/internal/metrics"
	"dpslog/internal/searchlog"
	"dpslog/internal/ump"
)

// contentDigest hashes the log's TSV rendering afresh. Log.Digest caches
// its first result, so it alone cannot show a mutation made after it ran.
func contentDigest(t *testing.T, l *searchlog.Log) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := searchlog.WriteTSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestMechanismContract checks the promises every registered mechanism
// makes to the ledger and its callers: Canonical is
// idempotent, Cost is invariant under Canonical (the ledger pre-checks
// and charges on the canonical options), the canonical options validate,
// and Sanitize does not mutate its input.
func TestMechanismContract(t *testing.T) {
	// tiny-sharded holds users with more pairs than the aggregate
	// mechanisms' contribution bounds, so bounding must truncate a copy.
	_, pre, _, err := gen.GeneratePreprocessed(gen.TinySharded(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		m, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		base := Calibrated(name, math.Log(4), 7)
		// The same run with every field the mechanism ignores (or
		// defaults) set to something else.
		noisy := base
		noisy.Solver, noisy.Parallelism, noisy.MinSupport = "greedy", 3, 0.01
		noisy.EpsPrime, noisy.Comp = 0.5, ump.NewComponentCache(0)
		if name == "ump" {
			noisy.Mechanism = ""
			noisy.D = 4
		}
		for _, o := range []Options{base, noisy} {
			if err := m.Validate(o); err != nil {
				t.Fatalf("%s: test options invalid: %v", name, err)
			}
			c := m.Canonical(o)
			if cc := m.Canonical(c); cc != c {
				t.Errorf("%s: Canonical not idempotent:\n%+v\n%+v", name, c, cc)
			}
			if got, want := m.Cost(o), m.Cost(c); got != want {
				t.Errorf("%s: Cost(o) = %+v, Cost(Canonical(o)) = %+v", name, got, want)
			}
			if err := m.Validate(c); err != nil {
				t.Errorf("%s: canonical options fail validation: %v", name, err)
			}
			if c.Comp != nil {
				t.Errorf("%s: Canonical kept the component cache", name)
			}
			if c != m.Canonical(base) {
				t.Errorf("%s: ignored fields survive Canonical:\n%+v\n%+v", name, c, m.Canonical(base))
			}

			before, cached := contentDigest(t, pre), pre.Digest()
			if _, err := m.Sanitize(context.Background(), pre, o); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if after := contentDigest(t, pre); after != before {
				t.Errorf("%s: Sanitize mutated its input log", name)
			}
			if pre.Digest() != cached {
				t.Errorf("%s: input Log.Digest changed across Sanitize", name)
			}
		}
	}
}

// TestDegenerateFrequentAndCombinedReports covers budgets so small that
// λ = 0 on tiny: nothing can be released, and the plan must still report
// the objective the caller asked for, realized on the empty plan. F-UMP
// reports its own kind and the empty plan's Equation-5 distance (each
// frequent pair's full input support); C-UMP with unit weights reports
// that distance negated.
func TestDegenerateFrequentAndCombinedReports(t *testing.T) {
	_, pre, _, err := gen.GeneratePreprocessed(gen.Tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	const minSupport = 0.01
	empty := make([]int, pre.NumPairs())
	want, _, _ := metrics.SupportDistances(pre, empty, minSupport)
	if math.Abs(want-0.7968) > 5e-5 {
		t.Fatalf("empty-plan distance %.6f, want ≈ 0.7968 (fixture drifted)", want)
	}
	for _, eExp := range []float64{1.0001, 1.001, 1.01} {
		for _, tc := range []struct {
			obj       Objective
			kind      string
			objective float64
		}{
			{ObjectiveFrequent, "F-UMP", want},
			{ObjectiveCombined, "C-UMP", -want},
		} {
			opts := Options{Epsilon: math.Log(eExp), Delta: 1e-4, Objective: tc.obj, MinSupport: minSupport, Seed: 1}
			res, err := RunUMP(context.Background(), pre, opts)
			if err != nil {
				t.Fatalf("e^ε=%g %s: %v", eExp, tc.kind, err)
			}
			p := res.Plan
			if p.OutputSize != 0 || p.Lambda != 0 {
				t.Fatalf("e^ε=%g %s: size %d, λ %d; want a degenerate budget", eExp, tc.kind, p.OutputSize, p.Lambda)
			}
			if p.Kind != tc.kind || p.Objective != tc.objective {
				t.Errorf("e^ε=%g: plan reports %s objective %.6f, want %s %.6f", eExp, p.Kind, p.Objective, tc.kind, tc.objective)
			}
		}
	}
}

// TestColdFrequentReleaseReusesNothing pins the solver accounting of a
// cold F-UMP release, with no component cache and with a fresh one: λ is
// solved once (one O-UMP LP per component) and the F-UMP LPs once more per
// component, every one of them is counted, and nothing is served from the
// cache — a fresh cache holds nothing the release did not put there itself.
func TestColdFrequentReleaseReusesNothing(t *testing.T) {
	for _, tc := range []struct {
		profile    gen.Profile
		components int
	}{{gen.Tiny(), 1}, {gen.SmallSharded(), 8}} {
		_, pre, _, err := gen.GeneratePreprocessed(tc.profile, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, cache := range []*ump.ComponentCache{nil, ump.NewComponentCache(0)} {
			opts := Options{Epsilon: math.Log(2), Delta: 0.25, Objective: ObjectiveFrequent, MinSupport: 0.01, Seed: 1,
				Comp: cache}
			res, err := RunUMP(context.Background(), pre, opts)
			if err != nil {
				t.Fatal(err)
			}
			if p := res.Plan; p.Components != tc.components || p.Reused != 0 || p.Solver.LPSolves != 2*tc.components {
				t.Errorf("%s cold F-UMP release (cache %v): %d components, %d reused, %d LP solves; want %d, 0, %d",
					tc.profile.Name, cache != nil, p.Components, p.Reused, p.Solver.LPSolves, tc.components, 2*tc.components)
			}
		}
	}
}

// TestEmptyEndToEndCombinedObjective covers a §4.2 C-UMP release of a log
// that preprocessing empties: the noisy-count recompute shares the joint
// objective of ump.CombinedWeights, so the empty release scores 0, not
// NaN (which the server's JSON encoder rejects).
func TestEmptyEndToEndCombinedObjective(t *testing.T) {
	b := searchlog.NewBuilder()
	b.Add("u1", "q1", "http://a", 3)
	b.Add("u2", "q2", "http://b", 3)
	opts := Options{Epsilon: math.Log(2), Delta: 0.5, Objective: ObjectiveCombined, MinSupport: 0.01,
		EndToEnd: true, D: 1, EpsPrime: 1, Seed: 1}
	res, err := RunUMP(context.Background(), b.Log(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.NoiseApplied || res.Plan.Objective != 0 {
		t.Errorf("empty end-to-end C-UMP release: noise %v, objective %g; want noise and 0", res.Plan.NoiseApplied, res.Plan.Objective)
	}
}
