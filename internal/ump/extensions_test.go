package ump

import (
	"math"
	"testing"

	"dpslog/internal/dp"
	"dpslog/internal/metrics"
)

func TestCombinedWeightsValidate(t *testing.T) {
	if err := (CombinedWeights{SizeWeight: 1, DistanceWeight: 1}).Validate(); err != nil {
		t.Errorf("valid weights rejected: %v", err)
	}
	for _, w := range []CombinedWeights{
		{SizeWeight: -1, DistanceWeight: 1},
		{SizeWeight: 1, DistanceWeight: -1},
		{},
	} {
		if err := w.Validate(); err == nil {
			t.Errorf("weights %+v accepted", w)
		}
	}
}

func TestCombinedPlanFeasible(t *testing.T) {
	l := tinyCorpus(t)
	p := params(2.0, 0.5)
	s := 4.0 / float64(l.Size())
	plan, err := Combined(l, p, s, CombinedWeights{SizeWeight: 1, DistanceWeight: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != KindCombined {
		t.Errorf("kind = %v", plan.Kind)
	}
	if err := dp.VerifyLog(l, p, plan.Counts); err != nil {
		t.Fatalf("combined plan violates DP constraints: %v", err)
	}
	if plan.OutputSize < 0 {
		t.Error("negative output size")
	}
}

func TestCombinedWeightsTradeOff(t *testing.T) {
	// Pure size weight must recover (approximately) the O-UMP release;
	// raising the distance weight can only shrink or hold the output.
	l := tinyCorpus(t)
	p := params(2.0, 0.5)
	s := 4.0 / float64(l.Size())
	lam, err := MaxOutputSize(l, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizeOnly, err := Combined(l, p, s, CombinedWeights{SizeWeight: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := lam.OutputSize - sizeOnly.OutputSize; diff < 0 || diff > lam.OutputSize/3+2 {
		t.Errorf("size-only combined release %d far from λ %d", sizeOnly.OutputSize, lam.OutputSize)
	}
	distHeavy, err := Combined(l, p, s, CombinedWeights{SizeWeight: 0.01, DistanceWeight: 10}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A distance-dominated objective should not emit more than the
	// size-dominated one.
	if distHeavy.OutputSize > sizeOnly.OutputSize {
		t.Errorf("distance-heavy release %d exceeds size-heavy release %d",
			distHeavy.OutputSize, sizeOnly.OutputSize)
	}
	// And its realized distance should be no worse.
	dh, _, _ := metrics.SupportDistances(l, distHeavy.Counts, s)
	so, _, _ := metrics.SupportDistances(l, sizeOnly.Counts, s)
	if dh > so+0.15 {
		t.Errorf("distance-heavy plan has worse distance (%g) than size-heavy (%g)", dh, so)
	}
}

func TestCombinedRejectsBadInput(t *testing.T) {
	l := tinyCorpus(t)
	p := params(2.0, 0.5)
	if _, err := Combined(l, p, 0, CombinedWeights{SizeWeight: 1}, Options{}); err == nil {
		t.Error("zero support accepted")
	}
	if _, err := Combined(l, p, 0.1, CombinedWeights{}, Options{}); err == nil {
		t.Error("zero weights accepted")
	}
}

func TestMinPrivacyBasics(t *testing.T) {
	l := uniformLog(t, 30, 3)
	res, err := MinPrivacy(l, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Kind != KindMinPrivacy {
		t.Errorf("kind = %v", res.Plan.Kind)
	}
	if res.Epsilon <= 0 {
		t.Errorf("ε* = %g, want > 0 for a positive target", res.Epsilon)
	}
	// Integral exposure never exceeds the LP optimum.
	if res.Epsilon > res.Plan.RelaxationObjective+1e-9 {
		t.Errorf("integral exposure %g exceeds LP optimum %g", res.Epsilon, res.Plan.RelaxationObjective)
	}
	// The plan must verify at (ε*, δ) for any δ with ln 1/(1−δ) ≥ ε*.
	delta := 1 - math.Exp(-res.Epsilon) + 1e-9
	if delta >= 1 {
		delta = 0.999999
	}
	p := dp.Params{Eps: res.Epsilon + 1e-9, Delta: delta}
	if err := dp.VerifyLog(l, p, res.Plan.Counts); err != nil {
		t.Errorf("min-privacy plan fails audit at its own ε*: %v", err)
	}
	// Output size is close to the target (flooring may lose a little).
	if res.Plan.OutputSize > 10 || res.Plan.OutputSize < 8 {
		t.Errorf("output size %d, want ≈10", res.Plan.OutputSize)
	}
}

func TestMinPrivacyMonotoneInTarget(t *testing.T) {
	// More demanded utility can never need less privacy budget.
	l := uniformLog(t, 30, 3)
	prev := -1.0
	for _, target := range []int{5, 15, 30, 60, 90} {
		res, err := MinPrivacy(l, target, Options{})
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		if res.Plan.RelaxationObjective < prev-1e-9 {
			t.Errorf("ε*(%d) = %g dropped below previous %g", target, res.Plan.RelaxationObjective, prev)
		}
		prev = res.Plan.RelaxationObjective
	}
}

func TestMinPrivacyDualOfOUMP(t *testing.T) {
	// Weak duality between the two problems: solving O-UMP at budget b then
	// asking MinPrivacy for that λ must need no more than b.
	l := uniformLog(t, 30, 3)
	p := params(2.0, 0.5)
	lam, err := MaxOutputSize(l, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lam.OutputSize == 0 {
		t.Skip("empty λ")
	}
	res, err := MinPrivacy(l, lam.OutputSize, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.RelaxationObjective > p.Budget()+1e-6 {
		t.Errorf("ε*(λ) = %g exceeds the budget %g that produced λ", res.Plan.RelaxationObjective, p.Budget())
	}
}

func TestMinPrivacyValidation(t *testing.T) {
	l := uniformLog(t, 5, 2)
	if _, err := MinPrivacy(l, 0, Options{}); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := MinPrivacy(l, l.Size()+1, Options{}); err == nil {
		t.Error("target beyond total mass accepted")
	}
}

func TestQueryDiversityBasics(t *testing.T) {
	l := tinyCorpus(t)
	p := params(2.0, 0.5)
	plan, err := QueryDiversity(l, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != KindQueryDiversity {
		t.Errorf("kind = %v", plan.Kind)
	}
	if err := dp.VerifyLog(l, p, plan.Counts); err != nil {
		t.Fatalf("query-diversity plan violates DP constraints: %v", err)
	}
	// At most one pair retained per query.
	perQuery := map[string]int{}
	for i, x := range plan.Counts {
		if x != 0 && x != 1 {
			t.Fatalf("count %d at pair %d, want binary", x, i)
		}
		if x == 1 {
			perQuery[l.Pair(i).Query]++
		}
	}
	for q, n := range perQuery {
		if n > 1 {
			t.Errorf("query %q has %d retained pairs, want ≤ 1", q, n)
		}
	}
	if plan.OutputSize != len(perQuery) {
		t.Errorf("OutputSize %d != distinct queries %d", plan.OutputSize, len(perQuery))
	}
	if plan.OutputSize == 0 {
		t.Error("no queries retained at a permissive budget")
	}
}

func TestQueryDiversityAtLeastPairDiversityQueries(t *testing.T) {
	// Dedicating the budget to one pair per query should retain at least as
	// many distinct queries as the pair-level SPE heuristic does.
	l := tinyCorpus(t)
	p := params(2.0, 0.5)
	qPlan, err := QueryDiversity(l, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dPlan, err := Diversity(l, p, Options{Solver: "spe"})
	if err != nil {
		t.Fatal(err)
	}
	dQueries := map[string]bool{}
	for i, x := range dPlan.Counts {
		if x > 0 {
			dQueries[l.Pair(i).Query] = true
		}
	}
	if qPlan.OutputSize < len(dQueries) {
		t.Errorf("query-diversity retained %d queries < SPE's %d", qPlan.OutputSize, len(dQueries))
	}
}

func TestExtensionsRejectUnpreprocessed(t *testing.T) {
	l := unpreprocessedLog(t)
	p := params(2.0, 0.5)
	if _, err := Combined(l, p, 0.1, CombinedWeights{SizeWeight: 1}, Options{}); err == nil {
		t.Error("Combined accepted an unpreprocessed log")
	}
	if _, err := MinPrivacy(l, 1, Options{}); err == nil {
		t.Error("MinPrivacy accepted an unpreprocessed log")
	}
	if _, err := QueryDiversity(l, p, Options{}); err == nil {
		t.Error("QueryDiversity accepted an unpreprocessed log")
	}
}
