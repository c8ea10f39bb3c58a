package experiments

import (
	"context"
	"fmt"
	"math"

	"dpslog/internal/dp"
	"dpslog/internal/mechanism"
	"dpslog/internal/metrics"
	"dpslog/internal/ump"
)

// This file adds extension experiments beyond the paper's evaluation,
// exercising the §7 future-work features (DESIGN.md §5b). They are not part
// of Experiments() (the paper-order list) but are reachable by ID and
// included in RunAllWithExtensions.

// ExtensionExperiments lists the extension experiment IDs.
func ExtensionExperiments() []string {
	return []string{"frontier", "combined-sweep", "querydiv", "baseline-compare", "mechanism-frontier"}
}

// aggregateMechanisms lists the registered non-UMP mechanisms in registry
// order, so the comparison tables pick up new mechanisms automatically.
func aggregateMechanisms() []mechanism.Mechanism {
	var out []mechanism.Mechanism
	for _, name := range mechanism.Names() {
		m, err := mechanism.Get(name)
		if err != nil || m.Name() == "ump" {
			continue
		}
		out = append(out, m)
	}
	return out
}

// BaselineCompare makes the paper's §2.1 argument against aggregate-release
// mechanisms concrete: at matched budgets, compare this repository's F-UMP
// release against every registered aggregate mechanism (Korolova-style
// Laplace and ZEALOUS) on frequent-pair recall,
// release size and the analyses each schema supports. The aggregate rows
// iterate internal/mechanism's registry, so a newly registered mechanism
// appears here without touching this file.
func (r *Runner) BaselineCompare() (*Table, error) {
	s := 1.0 / 500
	t := &Table{
		ID:     "baseline-compare",
		Title:  "F-UMP (this paper) vs registered aggregate release mechanisms (§2 comparison)",
		Header: []string{"mechanism @ e^ε", "released rows", "frequent recall", "schema", "per-user analysis"},
	}
	ctx := context.Background()
	for _, eExp := range []float64{1.4, 2.0, 2.3} {
		p := params(eExp, 0.5)
		lam, err := r.lambdaPlan(p)
		if err != nil {
			return nil, err
		}
		O := int(math.Floor(lam.RelaxationObjective))
		plan, _, err := r.fumpPlan(p, s, O)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("F-UMP @ %g", eExp),
			fmt.Sprint(plan.OutputSize),
			fmt.Sprintf("%.4f", r.planRecall(plan, s)),
			"user,query,url,count",
			"yes")

		for _, m := range aggregateMechanisms() {
			opts := mechanism.Calibrated(m.Name(), p.Eps, r.cfg.Seed)
			rel, err := m.Sanitize(ctx, r.pre, opts)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%s @ %g", m.Name(), eExp),
				fmt.Sprint(rel.Rows()),
				fmt.Sprintf("%.4f", rel.FrequentRecall(r.pre, s)),
				"query,url,count",
				yesNo(rel.SupportsUserAnalysis()))
		}
	}
	t.Note("matched ε per row group; laplace's δ is governed by its threshold (weaker indistinguishability notion); zealous targets the paper's own probabilistic-DP notion")
	t.Note("laplace/zealous: contribution bound 5, each kept pair counting once per user; laplace threshold τ = (2D/ε)·ln(1/2δ̂) with δ̂ = 10⁻³; both can release many aggregate rows on large corpora but destroy every per-user association — the motivating deficiency of §2.1")
	return t, nil
}

// MechanismFrontier sweeps every registered mechanism across an e^ε grid
// and tabulates utility (released rows, frequent recall) against the
// mechanism's own declared (ε, δ) release cost — the comparison a
// deployment consults before spending corpus budget on one mechanism over
// another.
func (r *Runner) MechanismFrontier() (*Table, error) {
	s := 1.0 / 500
	t := &Table{
		ID:     "mechanism-frontier",
		Title:  "Per-mechanism utility vs ε frontier: released rows and frequent recall at each mechanism's declared cost",
		Header: []string{"mechanism", "e^ε", "released rows", "frequent recall", "cost ε", "cost δ"},
	}
	ctx := context.Background()
	for _, name := range mechanism.Names() {
		m, err := mechanism.Get(name)
		if err != nil {
			return nil, err
		}
		for _, eExp := range []float64{1.4, 2.0, 2.3, 4.0} {
			p := params(eExp, 0.5)
			// O-UMP runs at the paper's reference δ: the schema-preserving
			// release the aggregate rows are compared against.
			opts := mechanism.Calibrated(m.Name(), p.Eps, r.cfg.Seed)
			rel, err := m.Sanitize(ctx, r.pre, opts)
			if err != nil {
				return nil, err
			}
			cost := m.Cost(m.Canonical(opts))
			t.AddRow(m.Name(),
				fmt.Sprintf("%g", eExp),
				fmt.Sprint(rel.Rows()),
				fmt.Sprintf("%.4f", rel.FrequentRecall(r.pre, s)),
				fmt.Sprintf("%.4f", cost.Epsilon),
				fmt.Sprintf("%g", cost.Delta))
		}
	}
	t.Note("s = 1/500; ump rows are O-UMP at δ = 0.5; aggregate calibration as in baseline-compare (bound 5, laplace δ̂ = 10⁻³, zealous δ = 0.5)")
	t.Note("cost columns are each mechanism's declared per-release charge (internal/mechanism), exactly what the slserve ledger debits under sequential composition")
	return t, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Frontier tabulates the privacy/utility frontier via the §7
// breach-minimizing dual: for a ladder of required output sizes, the
// minimal per-user exposure ε* and the corresponding e^ε and δ.
func (r *Runner) Frontier() (*Table, error) {
	t := &Table{
		ID:     "frontier",
		Title:  "Privacy/utility frontier: minimal ε for a required output size (extension, §7)",
		Header: []string{"required |O|", "realized |O|", "minimal ε", "e^ε", "δ with ln 1/(1−δ)=ε"},
	}
	ref, err := r.referenceLambda()
	if err != nil {
		return nil, err
	}
	if ref < 2 {
		ref = 2
	}
	for _, frac := range []float64{0.1, 0.25, 0.5, 1.0, 2.0} {
		target := int(frac * float64(ref))
		if target < 1 {
			target = 1
		}
		res, err := ump.MinPrivacy(r.pre, target, ump.Options{Warm: r.warm})
		if err != nil {
			return nil, err
		}
		delta := dp.MinDeltaFor(res.Epsilon)
		t.AddRow(fmt.Sprint(target),
			fmt.Sprint(res.Plan.OutputSize),
			fmt.Sprintf("%.4f", res.Epsilon),
			fmt.Sprintf("%.3f", math.Exp(res.Epsilon)),
			fmt.Sprintf("%.4f", delta))
	}
	t.Note("targets are fractions {0.1, 0.25, 0.5, 1, 2} of λ(e^ε=2, δ=0.5) = %d", ref)
	t.Note("ε* grows monotonically with the demanded utility — the dual view of Table 4")
	return t, nil
}

// CombinedSweep shows the §7 joint objective trading release size against
// frequent-pair fidelity as the distance weight grows.
func (r *Runner) CombinedSweep() (*Table, error) {
	p := params(2.0, 0.5)
	s := 1.0 / 500
	t := &Table{
		ID:     "combined-sweep",
		Title:  "Joint objective sweep: size vs frequent-pair fidelity (extension, §7)",
		Header: []string{"distance weight", "released |O|", "distance sum", "recall"},
	}
	for _, dw := range []float64{0, 0.5, 1, 2, 5, 20} {
		w := ump.CombinedWeights{SizeWeight: 1, DistanceWeight: dw}
		if dw == 0 {
			w = ump.CombinedWeights{SizeWeight: 1}
		}
		plan, err := ump.Combined(r.pre, p, s, w, ump.Options{Warm: r.warm})
		if err != nil {
			return nil, err
		}
		sum, _, _ := metrics.SupportDistances(r.pre, plan.Counts, s)
		t.AddRow(fmt.Sprintf("%g", dw),
			fmt.Sprint(plan.OutputSize),
			fmt.Sprintf("%.4f", sum),
			fmt.Sprintf("%.4f", r.planRecall(plan, s)))
	}
	t.Note("e^ε = 2, δ = 0.5, s = 1/500; heavier distance weight shrinks the release toward support-faithful pairs")
	return t, nil
}

// QueryDiv compares pair-level D-UMP (SPE) against the query-level variant.
func (r *Runner) QueryDiv() (*Table, error) {
	t := &Table{
		ID:     "querydiv",
		Title:  "Query-level vs pair-level diversity (extension, §5.3 remark)",
		Header: []string{"e^ε (δ=0.5)", "pairs kept (SPE)", "queries kept (SPE)", "queries kept (Q-UMP)"},
	}
	for _, eExp := range []float64{1.1, 1.4, 1.7, 2.0, 2.3} {
		p := params(eExp, 0.5)
		dPlan, err := ump.Diversity(r.pre, p, ump.Options{Solver: "spe"})
		if err != nil {
			return nil, err
		}
		speQueries := map[string]bool{}
		for i, x := range dPlan.Counts {
			if x > 0 {
				speQueries[r.pre.Pair(i).Query] = true
			}
		}
		qPlan, err := ump.QueryDiversity(r.pre, p, ump.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%g", eExp),
			fmt.Sprint(dPlan.OutputSize),
			fmt.Sprint(len(speQueries)),
			fmt.Sprint(qPlan.OutputSize))
	}
	t.Note("Q-UMP dedicates the budget to one cheapest pair per query, retaining at least as many distinct queries as pair-level SPE")
	return t, nil
}

// RunAllWithExtensions regenerates the paper experiments followed by the
// extension experiments.
func (r *Runner) RunAllWithExtensions() ([]*Table, error) {
	tabs, err := r.RunAll()
	if err != nil {
		return nil, err
	}
	for _, id := range ExtensionExperiments() {
		t, err := r.Run(id)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", id, err)
		}
		tabs = append(tabs, t)
	}
	return tabs, nil
}
