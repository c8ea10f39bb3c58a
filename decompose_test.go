package dpslog

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestSanitizeParallelismInvariance locks down the decomposition contract
// at the API surface: at a fixed seed, the sanitized output is byte-for-byte
// identical whether the component solves run sequentially or concurrently.
func TestSanitizeParallelismInvariance(t *testing.T) {
	in, err := Generate("tiny-sharded", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"output-size", Options{Objective: ObjectiveOutputSize}},
		{"frequent", Options{Objective: ObjectiveFrequent, MinSupport: 0.01}},
		{"diversity", Options{Objective: ObjectiveDiversity}},
		{"combined", Options{Objective: ObjectiveCombined, MinSupport: 0.01}},
		{"query-diversity", Options{Objective: ObjectiveQueryDiversity}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			render := func(parallelism int) ([]byte, *Result) {
				opts := tc.opts
				opts.Epsilon = math.Log(2)
				opts.Delta = 0.5
				opts.Seed = 42
				opts.Parallelism = parallelism
				s, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Sanitize(in)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if _, err := WriteTSV(&buf, res.Output); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), res
			}
			seq, seqRes := render(1)
			par, parRes := render(8)
			if !bytes.Equal(seq, par) {
				t.Fatalf("sanitized output differs between Parallelism 1 and 8 (%d vs %d bytes)", len(seq), len(par))
			}
			if seqRes.Plan.Objective != parRes.Plan.Objective {
				t.Fatalf("objective differs: %g vs %g", seqRes.Plan.Objective, parRes.Plan.Objective)
			}
			if seqRes.Plan.Components < 2 {
				t.Fatalf("tiny-sharded should decompose, got %d component(s)", seqRes.Plan.Components)
			}
		})
	}
}

// TestSanitizeComponentsReported checks the Components plumbing through the
// public Result on connected and sharded corpora.
func TestSanitizeComponentsReported(t *testing.T) {
	for _, tc := range []struct {
		profile string
		want    int
	}{{"tiny", 1}, {"tiny-sharded", 4}} {
		in, err := Generate(tc.profile, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Options{Epsilon: math.Log(2), Delta: 0.5, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Sanitize(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Components != tc.want {
			t.Errorf("%s: Components = %d, want %d", tc.profile, res.Plan.Components, tc.want)
		}
	}
}

// TestCanonicalIgnoresParallelism: plans are parallelism-invariant, so the
// canonical options (the release key) must not distinguish parallelism
// levels.
func TestCanonicalIgnoresParallelism(t *testing.T) {
	a := Options{Epsilon: 1, Delta: 0.5, Parallelism: 8}.Canonical()
	b := Options{Epsilon: 1, Delta: 0.5}.Canonical()
	if a != b {
		t.Fatalf("Canonical differs with Parallelism set: %+v vs %+v", a, b)
	}
	if err := (Options{Epsilon: 1, Delta: 0.5, Parallelism: -1}).Validate(); err == nil {
		t.Fatal("negative Parallelism should fail validation")
	}
}

// TestNoisyFrequentObjectiveNotNaN is the regression test for the noisy
// F-UMP objective: Sanitize used to report NaN for EndToEnd frequent-pair
// runs, which also broke JSON encoding of the server's sync response.
func TestNoisyFrequentObjectiveNotNaN(t *testing.T) {
	in, err := Generate("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{
		Epsilon: math.Log(4), Delta: 0.5,
		Objective: ObjectiveFrequent, MinSupport: 0.01,
		Seed: 9, EndToEnd: true, D: 2, EpsPrime: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Sanitize(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.NoiseApplied {
		t.Fatal("expected NoiseApplied")
	}
	if math.IsNaN(res.Plan.Objective) {
		t.Fatal("noisy F-UMP objective is NaN")
	}
	// The reported objective must be the realized distance of the *noisy*
	// counts, recomputable from the released plan.
	outSize := 0
	for _, c := range res.Plan.Counts {
		outSize += c
	}
	if res.Plan.OutputSize != outSize {
		t.Fatalf("OutputSize %d != Σ counts %d", res.Plan.OutputSize, outSize)
	}
	if _, err := json.Marshal(res.Plan.Objective); err != nil {
		t.Fatalf("objective does not JSON-encode: %v", err)
	}
}

// TestNoisyObjectivesRecomputed checks the other noisy objectives are
// recomputed from the noisy counts rather than copied from the clean solve.
func TestNoisyObjectivesRecomputed(t *testing.T) {
	in, err := Generate("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"diversity", Options{Objective: ObjectiveDiversity}},
		{"query-diversity", Options{Objective: ObjectiveQueryDiversity}},
		{"combined", Options{Objective: ObjectiveCombined, MinSupport: 0.01}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Epsilon = math.Log(4)
			opts.Delta = 0.5
			opts.Seed = 11
			opts.EndToEnd = true
			opts.D = 2
			opts.EpsPrime = 1.0
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Sanitize(in)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(res.Plan.Objective) || math.IsInf(res.Plan.Objective, 0) {
				t.Fatalf("bad noisy objective %g", res.Plan.Objective)
			}
			switch tc.opts.Objective {
			case ObjectiveDiversity, ObjectiveQueryDiversity:
				// Distinct-retained objectives can never exceed the number
				// of pairs with positive counts.
				positive := 0
				for _, c := range res.Plan.Counts {
					if c > 0 {
						positive++
					}
				}
				if int(res.Plan.Objective) > positive {
					t.Fatalf("objective %g exceeds %d positive pairs", res.Plan.Objective, positive)
				}
			}
		})
	}
}
