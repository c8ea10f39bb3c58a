package ump

import (
	"math"
	"slices"
	"testing"

	"dpslog/internal/dp"
	"dpslog/internal/gen"
	"dpslog/internal/metrics"
	"dpslog/internal/searchlog"
)

// fixtureLog is a small preprocessed log with interesting structure.
func fixtureLog(t testing.TB) *searchlog.Log {
	t.Helper()
	b := searchlog.NewBuilder()
	b.Add("081", "google", "google.com", 15)
	b.Add("082", "google", "google.com", 7)
	b.Add("083", "google", "google.com", 17)
	b.Add("082", "car price", "kbb.com", 2)
	b.Add("083", "car price", "kbb.com", 5)
	b.Add("081", "book", "amazon.com", 3)
	b.Add("083", "book", "amazon.com", 1)
	b.Add("081", "pizza", "pizzahut.com", 4)
	b.Add("082", "pizza", "pizzahut.com", 4)
	l := b.Log()
	if !searchlog.IsPreprocessed(l) {
		t.Fatal("fixture not preprocessed")
	}
	return l
}

func tinyCorpus(t testing.TB) *searchlog.Log {
	t.Helper()
	_, pre, _, err := gen.GeneratePreprocessed(gen.Tiny(), 11)
	if err != nil {
		t.Fatal(err)
	}
	return pre
}

func params(eExp, delta float64) dp.Params { return dp.FromEExp(eExp, delta) }

// uniformLog builds a log where `users` users each hold every one of `pairs`
// pairs with count 1. Coefficients are the tiny ln(n/(n−1)) of real search
// logs, so integral plans are non-trivial even at small scale.
func uniformLog(t testing.TB, users, pairs int) *searchlog.Log {
	t.Helper()
	b := searchlog.NewBuilder()
	for k := 0; k < users; k++ {
		for i := 0; i < pairs; i++ {
			b.Add(
				// Two-digit IDs keep ordering stable.
				"u"+string(rune('0'+k/10))+string(rune('0'+k%10)),
				"q"+string(rune('a'+i)), "url"+string(rune('a'+i)), 1)
		}
	}
	l := b.Log()
	if !searchlog.IsPreprocessed(l) {
		t.Fatal("uniform log not preprocessed")
	}
	return l
}

func TestMaxOutputSizePlanFeasibleAndCapped(t *testing.T) {
	l := uniformLog(t, 30, 3)
	p := params(2.0, 0.5)
	plan, err := MaxOutputSize(l, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != KindOutputSize {
		t.Errorf("kind = %v", plan.Kind)
	}
	if err := dp.VerifyLog(l, p, plan.Counts); err != nil {
		t.Fatalf("plan violates DP constraints: %v", err)
	}
	// Budget ln 2 ≈ .693, coefficient ln(30/29) ≈ .0339 → each user admits
	// Σx ≈ 20 across the three pairs; λ must land nearby.
	if plan.OutputSize < 15 || plan.OutputSize > 21 {
		t.Errorf("λ = %d, want ≈20 for the uniform log", plan.OutputSize)
	}
	for i, x := range plan.Counts {
		if x > l.PairCount(i) {
			t.Errorf("pair %d: count %d exceeds input count %d (box constraint)", i, x, l.PairCount(i))
		}
	}
	if plan.OutputSize > l.Size() {
		t.Errorf("λ = %d exceeds |D| = %d", plan.OutputSize, l.Size())
	}
	if got := sum(plan.Counts); got != plan.OutputSize {
		t.Errorf("OutputSize %d != Σcounts %d", plan.OutputSize, got)
	}
}

func TestMaxOutputSizeFixtureFeasible(t *testing.T) {
	// The 3-user fixture has huge coefficients (each user dominates each
	// pair), so the fractional λ is ≈1.4 and flooring may zero it out; the
	// invariants still must hold.
	l := fixtureLog(t)
	p := params(2.0, 0.5)
	plan, err := MaxOutputSize(l, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.VerifyLog(l, p, plan.Counts); err != nil {
		t.Fatalf("plan violates DP constraints: %v", err)
	}
	if plan.RelaxationObjective <= 0 {
		t.Errorf("fractional λ = %g, want > 0", plan.RelaxationObjective)
	}
	if float64(plan.OutputSize) > plan.RelaxationObjective+1e-6 {
		t.Errorf("floored size %d exceeds fractional λ %g", plan.OutputSize, plan.RelaxationObjective)
	}
}

func TestMaxOutputSizeMonotoneInBudget(t *testing.T) {
	l := tinyCorpus(t)
	prev := -1
	for _, eExp := range []float64{1.001, 1.1, 1.4, 2.0, 2.3} {
		plan, err := MaxOutputSize(l, params(eExp, 0.5), Options{})
		if err != nil {
			t.Fatalf("eExp %g: %v", eExp, err)
		}
		if plan.OutputSize < prev {
			t.Errorf("λ not monotone: %d after %d at e^ε=%g", plan.OutputSize, prev, eExp)
		}
		prev = plan.OutputSize
	}
}

func TestMaxOutputSizeBudgetSaturation(t *testing.T) {
	// For fixed δ, growing ε beyond ln 1/(1−δ) leaves the budget — and λ —
	// unchanged (Table 4's row plateaus).
	l := tinyCorpus(t)
	delta := 0.01 // ln 1/(1−δ) ≈ 0.01 ≪ ln 1.4
	a, err := MaxOutputSize(l, params(1.4, delta), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MaxOutputSize(l, params(2.3, delta), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.OutputSize != b.OutputSize {
		t.Errorf("λ changed across saturated budgets: %d vs %d", a.OutputSize, b.OutputSize)
	}
}

func TestBoxConstraintAblation(t *testing.T) {
	// Without the x ≤ c cap, the fractional λ grows exactly linearly in the
	// budget; with the cap it saturates at Σ c_ij — the Table 4 plateau
	// shape (DESIGN.md §2).
	l := uniformLog(t, 30, 3) // Σ c_ij = 90, coef ln(30/29) ≈ .0339
	small, err := MaxOutputSize(l, params(1.1, 0.9999), Options{NoBoxConstraint: true})
	if err != nil {
		t.Fatal(err)
	}
	big, err := MaxOutputSize(l, params(2.3, 0.9999), Options{NoBoxConstraint: true})
	if err != nil {
		t.Fatal(err)
	}
	// δ budget ln 1/(1−δ) ≈ 9.2 never binds: budgets are ln 1.1 and ln 2.3.
	wantRatio := math.Log(2.3) / math.Log(1.1)
	ratio := big.RelaxationObjective / small.RelaxationObjective
	if math.Abs(ratio-wantRatio) > 0.05*wantRatio {
		t.Errorf("unboxed λ ratio = %.3f, want ≈%.3f (linear in budget)", ratio, wantRatio)
	}

	// At a huge budget the boxed problem pins at Σ c_ij while the unboxed
	// one keeps growing.
	hugeBoxed, err := MaxOutputSize(l, dp.Params{Eps: 8, Delta: 0.9999}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hugeUnboxed, err := MaxOutputSize(l, dp.Params{Eps: 8, Delta: 0.9999}, Options{NoBoxConstraint: true})
	if err != nil {
		t.Fatal(err)
	}
	if hugeBoxed.OutputSize != l.Size() {
		t.Errorf("boxed λ at huge budget = %d, want |D| = %d (plateau)", hugeBoxed.OutputSize, l.Size())
	}
	if hugeUnboxed.RelaxationObjective <= float64(l.Size())+1 {
		t.Errorf("unboxed λ at huge budget = %g, want ≫ %d", hugeUnboxed.RelaxationObjective, l.Size())
	}
}

func TestFrequentSupportBasics(t *testing.T) {
	l := tinyCorpus(t)
	p := params(2.0, 0.5)
	lambda, err := MaxOutputSize(l, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lambda.OutputSize < 4 {
		t.Skipf("tiny corpus too tight (λ=%d)", lambda.OutputSize)
	}
	O := lambda.OutputSize / 2
	s := 4.0 / float64(l.Size())
	plan, err := FrequentSupport(l, p, s, O, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.VerifyLog(l, p, plan.Counts); err != nil {
		t.Fatalf("F-UMP plan violates DP constraints: %v", err)
	}
	if plan.OutputSize > O {
		t.Errorf("realized size %d exceeds requested |O| %d", plan.OutputSize, O)
	}
	if plan.OutputSize < O-l.NumPairs() {
		t.Errorf("flooring lost too much: realized %d for |O|=%d", plan.OutputSize, O)
	}
	// The integral objective must match an independent recomputation.
	sumD, _, _ := metrics.SupportDistances(l, plan.Counts, s)
	if math.Abs(sumD-plan.Objective) > 1e-9 {
		t.Errorf("objective %g != recomputed %g", plan.Objective, sumD)
	}
}

// TestFrequentSupportDefaultSize: output size 0 selects ⌊λ/2⌋, and every
// F-UMP plan reports the λ its own λ phase computed — the O-UMP plan's
// size — so callers need no separate MaxOutputSize solve.
func TestFrequentSupportDefaultSize(t *testing.T) {
	l := tinyCorpus(t)
	p := params(2.0, 0.5)
	lambda, err := MaxOutputSize(l, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := 4.0 / float64(l.Size())
	def, err := FrequentSupport(l, p, s, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	half, err := FrequentSupport(l, p, s, lambda.OutputSize/2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Lambda != lambda.OutputSize || half.Lambda != lambda.OutputSize {
		t.Fatalf("plans report λ %d and %d, want %d", def.Lambda, half.Lambda, lambda.OutputSize)
	}
	if !slices.Equal(def.Counts, half.Counts) || def.Objective != half.Objective {
		t.Fatal("the default size diverged from an explicit ⌊λ/2⌋")
	}
}

func TestFrequentSupportPrecisionOne(t *testing.T) {
	// §6.3: every pair frequent in the output is frequent in the input —
	// otherwise the solution would not be optimal. Check on the integral
	// plan's induced supports.
	l := tinyCorpus(t)
	p := params(2.0, 0.5)
	lambda, err := MaxOutputSize(l, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lambda.OutputSize < 4 {
		t.Skipf("tiny corpus too tight (λ=%d)", lambda.OutputSize)
	}
	s := 6.0 / float64(l.Size())
	plan, err := FrequentSupport(l, p, s, lambda.OutputSize/2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inFreq := metrics.FrequentPairs(l, s)
	// Build the output frequent set from the plan (pair supports x/|O|).
	violations := 0
	for i := 0; i < l.NumPairs(); i++ {
		if plan.Counts[i] == 0 || plan.OutputSize == 0 {
			continue
		}
		outSup := float64(plan.Counts[i]) / float64(plan.OutputSize)
		if outSup >= s {
			if _, ok := inFreq[l.Pair(i).Key()]; !ok {
				violations++
			}
		}
	}
	// Flooring can nudge a borderline pair over the threshold; allow none in
	// practice but tolerate a single boundary artifact.
	if violations > 1 {
		t.Errorf("%d output-frequent pairs are not input-frequent (Precision < 1)", violations)
	}
}

func TestFrequentSupportValidation(t *testing.T) {
	l := fixtureLog(t)
	p := params(2.0, 0.5)
	if _, err := FrequentSupport(l, p, 0, 10, Options{}); err == nil {
		t.Error("zero support accepted")
	}
	if _, err := FrequentSupport(l, p, 1.5, 10, Options{}); err == nil {
		t.Error("support > 1 accepted")
	}
	if _, err := FrequentSupport(l, p, 0.1, -1, Options{}); err == nil {
		t.Error("negative output size accepted")
	}
	// |O| beyond λ must be infeasible.
	if _, err := FrequentSupport(l, p, 0.1, l.Size()*10, Options{}); err == nil {
		t.Error("output size far beyond λ accepted")
	}
}

func TestDiversityAllSolvers(t *testing.T) {
	l := tinyCorpus(t)
	p := params(2.0, 0.5)
	results := map[string]int{}
	for _, name := range []string{"spe", "spe-violated", "branchbound", "feaspump", "rounding", "greedy"} {
		plan, err := Diversity(l, p, Options{Solver: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := dp.VerifyLog(l, p, plan.Counts); err != nil {
			t.Fatalf("%s plan violates DP constraints: %v", name, err)
		}
		for i, x := range plan.Counts {
			if x != 0 && x != 1 {
				t.Fatalf("%s: D-UMP count %d at pair %d, want 0/1", name, x, i)
			}
		}
		results[name] = plan.OutputSize
	}
	for name, kept := range results {
		if kept == 0 {
			t.Errorf("%s retained nothing at a permissive budget", name)
		}
		if kept > l.NumPairs() {
			t.Errorf("%s retained more pairs than exist", name)
		}
	}
}

func TestDiversityDefaultsToSPE(t *testing.T) {
	l := fixtureLog(t)
	p := params(1.7, 0.5)
	a, err := Diversity(l, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Diversity(l, p, Options{Solver: "spe"})
	if err != nil {
		t.Fatal(err)
	}
	if a.OutputSize != b.OutputSize {
		t.Errorf("default solver %d != spe %d", a.OutputSize, b.OutputSize)
	}
	if _, err := Diversity(l, p, Options{Solver: "bogus"}); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestDiversityMonotoneInBudget(t *testing.T) {
	l := tinyCorpus(t)
	prev := -1
	for _, eExp := range []float64{1.01, 1.1, 1.7, 2.3} {
		plan, err := Diversity(l, params(eExp, 0.5), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.OutputSize < prev {
			// SPE is a heuristic; small non-monotonicities are conceivable
			// but a drop of more than a pair or two signals a bug.
			if prev-plan.OutputSize > 2 {
				t.Errorf("diversity dropped from %d to %d at e^ε=%g", prev, plan.OutputSize, eExp)
			}
		}
		prev = plan.OutputSize
	}
}

// unpreprocessedLog contains a unique pair, so every UMP must reject it.
func unpreprocessedLog(t testing.TB) *searchlog.Log {
	t.Helper()
	b := searchlog.NewBuilder()
	b.Add("a", "solo", "u", 3)
	b.Add("a", "shared", "u", 1)
	b.Add("b", "shared", "u", 2)
	return b.Log()
}

func TestRejectsUnpreprocessedLogs(t *testing.T) {
	l := unpreprocessedLog(t)
	p := params(2.0, 0.5)
	if _, err := MaxOutputSize(l, p, Options{}); err == nil {
		t.Error("O-UMP accepted an unpreprocessed log")
	}
	if _, err := FrequentSupport(l, p, 0.1, 2, Options{}); err == nil {
		t.Error("F-UMP accepted an unpreprocessed log")
	}
	if _, err := Diversity(l, p, Options{}); err == nil {
		t.Error("D-UMP accepted an unpreprocessed log")
	}
}

func TestRepairFixesInjectedViolation(t *testing.T) {
	l := fixtureLog(t)
	p := params(1.1, 0.01)
	cons, err := dp.Build(l, p)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, l.NumPairs())
	for i := range counts {
		counts[i] = l.PairCount(i) // wildly infeasible
	}
	n := dp.RepairPlan(cons, counts)
	if n == 0 {
		t.Fatal("repair did nothing on an infeasible plan")
	}
	if v := cons.Verify(counts); len(v) != 0 {
		t.Fatalf("repair left violations: %v", v)
	}
}

func TestTightParametersYieldTinyPlans(t *testing.T) {
	l := fixtureLog(t)
	plan, err := MaxOutputSize(l, params(1.001, 0.0001), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Budget ≈ 1e-4; every coefficient is ≥ ln(39/37) ≈ 0.05, so nothing
	// fits: λ must be 0.
	if plan.OutputSize != 0 {
		t.Errorf("λ = %d under a near-zero budget, want 0", plan.OutputSize)
	}
}
