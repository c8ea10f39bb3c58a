package dpslog

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerated through internal/experiments on the tiny profile
// so `go test -bench=.` completes in minutes), core-API benchmarks, and the
// ablation benchmarks called out in DESIGN.md §5.
//
// Regenerate the paper-shaped numbers at full scale with:
//
//	go run ./cmd/slexp -profile small        # seconds per experiment
//	go run ./cmd/slexp -profile paper        # minutes per experiment

import (
	"math"
	"testing"

	"dpslog/internal/bip"
	"dpslog/internal/dp"
	"dpslog/internal/experiments"
	"dpslog/internal/partition"
	"dpslog/internal/rng"
	"dpslog/internal/sampling"
	"dpslog/internal/searchlog"
	"dpslog/internal/ump"
)

// benchRunner builds a fresh experiment runner on the tiny profile; corpus
// generation is part of the measured harness cost, as it would be for a
// user regenerating an experiment end to end.
func benchRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	r, err := experiments.NewRunner(experiments.Config{Profile: "tiny", Seed: 5, SampleReps: 3})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// benchExperiment measures end-to-end regeneration of one experiment.
func benchExperiment(b *testing.B, id string) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		tab, err := r.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable3_DatasetStats(b *testing.B)       { benchExperiment(b, "table3") }
func BenchmarkTable4_MaxOutputSize(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkFig3a_FUMPRecall(b *testing.B)          { benchExperiment(b, "fig3a") }
func BenchmarkFig3b_FUMPSupportDistance(b *testing.B) { benchExperiment(b, "fig3b") }
func BenchmarkFig3c_FUMPAvgDistance(b *testing.B)     { benchExperiment(b, "fig3c") }
func BenchmarkTable5_FUMPRecallGrid(b *testing.B)     { benchExperiment(b, "table5") }
func BenchmarkTable6_FUMPDistanceGrid(b *testing.B)   { benchExperiment(b, "table6") }
func BenchmarkFig4_DiversitySPE(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkTable7a_SolversByDelta(b *testing.B)    { benchExperiment(b, "table7a") }
func BenchmarkTable7b_SolversByEps(b *testing.B)      { benchExperiment(b, "table7b") }
func BenchmarkFig5_SolverRuntime(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6_TripletHistogram(b *testing.B)     { benchExperiment(b, "fig6") }

// --- Core API benchmarks -------------------------------------------------

func benchCorpus(b *testing.B) *Log {
	b.Helper()
	in, err := Generate("tiny", 3)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func benchSanitize(b *testing.B, opts Options) {
	in := benchCorpus(b)
	s, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out int
	for i := 0; i < b.N; i++ {
		res, err := s.Sanitize(in)
		if err != nil {
			b.Fatal(err)
		}
		out = res.Plan.OutputSize
	}
	b.ReportMetric(float64(out), "released|O|")
}

func BenchmarkSanitizeOutputSize(b *testing.B) {
	benchSanitize(b, Options{Epsilon: math.Log(2), Delta: 0.5, Objective: ObjectiveOutputSize, Seed: 1})
}

func BenchmarkSanitizeFrequent(b *testing.B) {
	benchSanitize(b, Options{Epsilon: math.Log(2), Delta: 0.5, Objective: ObjectiveFrequent, MinSupport: 0.01, Seed: 1})
}

func BenchmarkSanitizeDiversity(b *testing.B) {
	benchSanitize(b, Options{Epsilon: math.Log(2), Delta: 0.5, Objective: ObjectiveDiversity, Seed: 1})
}

func BenchmarkPreprocess(b *testing.B) {
	in := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Preprocess(in)
	}
}

func BenchmarkMultinomialSampling(b *testing.B) {
	in := benchCorpus(b)
	pre, _ := Preprocess(in)
	counts := make([]int, pre.NumPairs())
	for i := range counts {
		counts[i] = pre.PairCount(i) / 2
	}
	g := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampling.Output(g, pre, counts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLP_OUMPSolve(b *testing.B) {
	in := benchCorpus(b)
	pre, _ := Preprocess(in)
	p := dp.Params{Eps: math.Log(2), Delta: 0.5}
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		plan, err := ump.MaxOutputSize(pre, p, ump.Options{})
		if err != nil {
			b.Fatal(err)
		}
		iters = plan.Iterations
	}
	b.ReportMetric(float64(iters), "simplex-iters")
}

// --- Ablations (DESIGN.md §5) --------------------------------------------

// BenchmarkAblation_SPEVariants compares the paper-literal global-max SPE
// against the violated-rows variant: runtime here, retained pairs as a
// metric.
func BenchmarkAblation_SPEVariants(b *testing.B) {
	in := benchCorpus(b)
	pre, _ := Preprocess(in)
	cons, err := dp.Build(pre, dp.Params{Eps: math.Log(2), Delta: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	for _, solver := range []bip.Solver{bip.SPE{}, bip.SPEViolated{}} {
		b.Run(solver.Name(), func(b *testing.B) {
			var kept int
			for i := 0; i < b.N; i++ {
				sol, err := solver.Solve(cons)
				if err != nil {
					b.Fatal(err)
				}
				kept = sol.Objective
			}
			b.ReportMetric(float64(kept), "retained")
		})
	}
}

// BenchmarkAblation_BoxConstraint confirms DESIGN.md §2: with the x ≤ c cap
// the fractional λ saturates; without it λ scales linearly in the budget.
func BenchmarkAblation_BoxConstraint(b *testing.B) {
	in := benchCorpus(b)
	pre, _ := Preprocess(in)
	p := dp.Params{Eps: math.Log(2), Delta: 0.5}
	for _, tc := range []struct {
		name  string
		noBox bool
	}{{"boxed", false}, {"unboxed", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var lambda float64
			for i := 0; i < b.N; i++ {
				plan, err := ump.MaxOutputSize(pre, p, ump.Options{NoBoxConstraint: tc.noBox})
				if err != nil {
					b.Fatal(err)
				}
				lambda = plan.RelaxationObjective
			}
			b.ReportMetric(lambda, "lambdaLP")
		})
	}
}

// BenchmarkAblation_EndToEndNoise measures the utility cost of the §4.2
// Laplace step (sampling-only vs end-to-end DP).
func BenchmarkAblation_EndToEndNoise(b *testing.B) {
	for _, tc := range []struct {
		name string
		e2e  bool
	}{{"sampling-only", false}, {"end-to-end", true}} {
		b.Run(tc.name, func(b *testing.B) {
			benchSanitize(b, Options{
				Epsilon: math.Log(2), Delta: 0.5, Objective: ObjectiveOutputSize,
				Seed: 1, EndToEnd: tc.e2e, D: 2, EpsPrime: 1.0,
			})
		})
	}
}

// BenchmarkAblation_BudgetCache shows the value of budget-keyed plan
// caching for grid experiments: a reused runner answers Table 4 from cache.
func BenchmarkAblation_BudgetCache(b *testing.B) {
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := benchRunner(b)
			if _, err := r.Table4(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		r := benchRunner(b)
		if _, err := r.Table4(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Table4(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Component decomposition (internal/partition, DESIGN.md §6) ----------

// benchPre generates and preprocesses one corpus outside the timed region.
func benchPre(b *testing.B, profile string) *searchlog.Log {
	b.Helper()
	in, err := Generate(profile, 1)
	if err != nil {
		b.Fatal(err)
	}
	pre, _ := Preprocess(in)
	return pre
}

// BenchmarkPartitionDecompose isolates the union-find + sub-log
// construction cost the decomposed path pays before solving.
func BenchmarkPartitionDecompose(b *testing.B) {
	for _, profile := range []string{"small", "small-sharded"} {
		pre := benchPre(b, profile)
		b.Run(profile, func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				n = len(partition.Decompose(pre))
			}
			b.ReportMetric(float64(n), "components")
		})
	}
}

// BenchmarkDPVerify measures the Theorem-1 audit, which runs on every
// release.
func BenchmarkDPVerify(b *testing.B) {
	in := benchCorpus(b)
	pre, _ := Preprocess(in)
	p := dp.Params{Eps: math.Log(2), Delta: 0.5}
	plan, err := ump.MaxOutputSize(pre, p, ump.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dp.VerifyLog(pre, p, plan.Counts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchlogBuild measures log construction from records.
func BenchmarkSearchlogBuild(b *testing.B) {
	in := benchCorpus(b)
	recs := in.Records()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := searchlog.FromRecords(recs); err != nil {
			b.Fatal(err)
		}
	}
}
