package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"dpslog/internal/bip"
	"dpslog/internal/dp"
	"dpslog/internal/gen"
	"dpslog/internal/metrics"
	"dpslog/internal/rng"
	"dpslog/internal/sampling"
	"dpslog/internal/searchlog"
	"dpslog/internal/ump"
)

// The paper's parameter grids (§6.1).
var (
	// EExpGrid7 is the paper's e^ε grid.
	EExpGrid7 = []float64{1.001, 1.01, 1.1, 1.4, 1.7, 2.0, 2.3}
	// DeltaGrid7 is the paper's δ grid for Table 4.
	DeltaGrid7 = []float64{1e-4, 1e-3, 1e-2, 1e-1, 0.2, 0.5, 0.8}
	// DeltaGrid4 is the δ subset of Figures 3(a)/3(b)/4.
	DeltaGrid4 = []float64{0.01, 0.1, 0.5, 0.8}
	// DeltaGrid6 is the δ grid of Table 7(a).
	DeltaGrid6 = []float64{1e-3, 1e-2, 1e-1, 0.2, 0.5, 0.8}
	// EExpGrid6 is the e^ε grid of Table 7(b).
	EExpGrid6 = []float64{1.01, 1.1, 1.4, 1.7, 2.0, 2.3}
	// SupportGrid is the paper's minimum-support grid.
	SupportGrid = []float64{1.0 / 100, 1.0 / 250, 1.0 / 500, 1.0 / 750, 1.0 / 1000}
	// OutputFractions scale the paper's |O| grid {3000..8000} by its
	// λ(e^ε=2, δ=0.5) = 13088, so the grid transfers to any corpus size.
	OutputFractions = []float64{0.229, 0.306, 0.382, 0.458, 0.535, 0.611}
)

// Config parameterizes a Runner.
type Config struct {
	// Profile is the synthetic corpus profile: tiny, small or paper.
	Profile string
	// Seed drives corpus generation and sampling.
	Seed uint64
	// FeasPumpIter bounds feasibility-pump rounds (0 → 5). The paper's NEOS
	// runs had server-side limits; this is the local equivalent.
	FeasPumpIter int
	// BBNodes bounds branch & bound nodes (0 → 5).
	BBNodes int
	// SampleReps is the number of sampled outputs averaged in Figure 6
	// (0 → 10, as in the paper).
	SampleReps int
}

// Runner generates the corpus once and regenerates experiments on demand,
// caching plans by privacy budget. Methods are safe for sequential use; the
// caches are mutex-guarded so Prewarm can fill them concurrently.
type Runner struct {
	cfg     Config
	profile gen.Profile
	raw     *searchlog.Log
	pre     *searchlog.Log
	preStat searchlog.PreprocessStats

	mu          sync.Mutex
	lambdaCache map[uint64]*ump.Plan
	fumpCache   map[string]*ump.Plan
	spePct      map[uint64]float64

	// warm shares simplex bases across the grid solves. The pool is sticky
	// (first basis per key wins) and seeded deterministically by anchorOnce
	// with the reference-budget solve, so concurrently prewarmed grids see
	// exactly the bases a serial run would — parallelism cannot change any
	// table cell.
	warm       *ump.WarmStarts
	anchorOnce sync.Once
	anchorErr  error
}

// NewRunner generates the corpus for the profile and seed.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Profile == "" {
		cfg.Profile = "small"
	}
	if cfg.FeasPumpIter <= 0 {
		cfg.FeasPumpIter = 5
	}
	if cfg.BBNodes <= 0 {
		cfg.BBNodes = 5
	}
	if cfg.SampleReps <= 0 {
		cfg.SampleReps = 10
	}
	profile, err := gen.Profiles(cfg.Profile)
	if err != nil {
		return nil, err
	}
	raw, pre, st, err := gen.GeneratePreprocessed(profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Runner{
		cfg:         cfg,
		profile:     profile,
		raw:         raw,
		pre:         pre,
		preStat:     st,
		lambdaCache: map[uint64]*ump.Plan{},
		fumpCache:   map[string]*ump.Plan{},
		spePct:      map[uint64]float64{},
		warm:        ump.NewWarmStarts(true),
	}, nil
}

// Pre returns the preprocessed corpus (for benchmarks that need direct
// access).
func (r *Runner) Pre() *searchlog.Log { return r.pre }

// Raw returns the raw corpus.
func (r *Runner) Raw() *searchlog.Log { return r.raw }

func params(eExp, delta float64) dp.Params { return dp.FromEExp(eExp, delta) }

func budgetKey(p dp.Params) uint64 { return math.Float64bits(p.Budget()) }

// DistinctBudgets reduces an (e^ε, δ) grid to one parameter point per
// distinct merged budget min{ε, ln 1/(1−δ)} — the only thing the Theorem-1
// constraint system depends on — sorted by ascending budget. Each budget is
// represented by its first grid point in e^ε-major order.
func DistinctBudgets(eExps, deltas []float64) []dp.Params {
	var out []dp.Params
	seen := map[uint64]bool{}
	for _, e := range eExps {
		for _, d := range deltas {
			p := params(e, d)
			if key := budgetKey(p); !seen[key] {
				seen[key] = true
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Budget() < out[j].Budget() })
	return out
}

// ensureAnchor solves the paper's reference point (e^ε = 2, δ = 0.5) once,
// cold, and lets its bases seed the sticky warm pool. Every other budget of
// a sweep then warm-starts from this one fixed anchor, which is both the
// speedup (the constraint matrix is identical across budgets) and the
// determinism guarantee (no solve depends on which other budget happened to
// finish first).
func (r *Runner) ensureAnchor() error {
	r.anchorOnce.Do(func() {
		p := params(2.0, 0.5)
		plan, err := ump.MaxOutputSize(r.pre, p, ump.Options{Warm: r.warm})
		if err != nil {
			r.anchorErr = err
			return
		}
		r.mu.Lock()
		r.lambdaCache[budgetKey(p)] = plan
		r.mu.Unlock()
	})
	return r.anchorErr
}

// lambdaPlan solves (and caches) O-UMP for the given parameters. Results
// depend only on the merged budget.
func (r *Runner) lambdaPlan(p dp.Params) (*ump.Plan, error) {
	if err := r.ensureAnchor(); err != nil {
		return nil, err
	}
	key := budgetKey(p)
	r.mu.Lock()
	plan, ok := r.lambdaCache[key]
	r.mu.Unlock()
	if ok {
		return plan, nil
	}
	plan, err := ump.MaxOutputSize(r.pre, p, ump.Options{Warm: r.warm})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.lambdaCache[key] = plan
	r.mu.Unlock()
	return plan, nil
}

// Prewarm solves every distinct O-UMP budget of a parameter grid
// concurrently (one worker per CPU). The λ solve is the dominant cost of
// the grid experiments; warming the budget cache in parallel roughly
// divides Table-4 wall time by the core count.
func (r *Runner) Prewarm(eExps, deltas []float64) error {
	var todo []dp.Params
	for _, p := range DistinctBudgets(eExps, deltas) {
		r.mu.Lock()
		_, cached := r.lambdaCache[budgetKey(p)]
		r.mu.Unlock()
		if !cached {
			todo = append(todo, p)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(todo) {
		workers = len(todo)
	}
	jobs := make(chan dp.Params)
	errs := make(chan error, len(todo))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range jobs {
				if _, err := r.lambdaPlan(p); err != nil {
					errs <- err
				}
			}
		}()
	}
	for _, p := range todo {
		jobs <- p
	}
	close(jobs)
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	return nil
}

// fumpPlan solves (and caches) F-UMP. outputSize is clamped to ⌊λ_LP⌋ so
// that tight budgets degrade to smaller (possibly empty) outputs instead of
// infeasibility, preserving the paper's trend curves.
func (r *Runner) fumpPlan(p dp.Params, minSupport float64, outputSize int) (*ump.Plan, int, error) {
	lam, err := r.lambdaPlan(p)
	if err != nil {
		return nil, 0, err
	}
	maxO := int(math.Floor(lam.RelaxationObjective))
	if outputSize > maxO {
		outputSize = maxO
	}
	if outputSize <= 0 {
		// Degenerate budget: the only feasible plan is empty.
		return &ump.Plan{Kind: ump.KindFrequent, Counts: make([]int, r.pre.NumPairs())}, 0, nil
	}
	key := fmt.Sprintf("%x|%g|%d", budgetKey(p), minSupport, outputSize)
	r.mu.Lock()
	plan, ok := r.fumpCache[key]
	r.mu.Unlock()
	if ok {
		return plan, outputSize, nil
	}
	plan, err = ump.FrequentSupport(r.pre, p, minSupport, outputSize, ump.Options{Warm: r.warm})
	if err != nil {
		return nil, 0, err
	}
	r.mu.Lock()
	r.fumpCache[key] = plan
	r.mu.Unlock()
	return plan, outputSize, nil
}

// planRecall computes Equation 9's Recall between the input's frequent
// pairs and the plan-induced output supports.
func (r *Runner) planRecall(plan *ump.Plan, minSupport float64) float64 {
	_, recall := metrics.PlanPrecisionRecall(r.pre, r.pre, plan.Counts, minSupport)
	return recall
}

// referenceLambda returns ⌊λ_LP⌋ at the paper's reference point
// (e^ε = 2, δ = 0.5), the anchor for the scaled |O| grid.
func (r *Runner) referenceLambda() (int, error) {
	plan, err := r.lambdaPlan(params(2.0, 0.5))
	if err != nil {
		return 0, err
	}
	return int(math.Floor(plan.RelaxationObjective)), nil
}

// Table3 reports dataset characteristics for the raw and preprocessed
// corpus, mirroring the paper's Table 3 columns.
func (r *Runner) Table3() (*Table, error) {
	t := &Table{
		ID:     "table3",
		Title:  "Characteristics of the data sets",
		Header: []string{"", "Exp. Dataset", "Preprocessed (no unique pairs)"},
	}
	rs := searchlog.ComputeStats(r.raw)
	ps := searchlog.ComputeStats(r.pre)
	row := func(label string, a, b int) { t.AddRow(label, fmt.Sprint(a), fmt.Sprint(b)) }
	row("# of total tuples (size)", rs.Size, ps.Size)
	row("# of user logs", rs.Users, ps.Users)
	row("# of distinct queries", rs.DistinctQueries, ps.DistinctQueries)
	row("# of distinct urls", rs.DistinctURLs, ps.DistinctURLs)
	row("# of query-url pairs", rs.Pairs, ps.Pairs)
	t.Note("synthetic %s profile, seed %d; paper uses the (retracted) AOL corpus — see DESIGN.md §2", r.cfg.Profile, r.cfg.Seed)
	t.Note("removed %d unique pairs (%d tuples) and %d emptied user logs", r.preStat.RemovedPairs, r.preStat.RemovedMass, r.preStat.RemovedUsers)
	return t, nil
}

// Table4 computes the maximum output size λ over the full (e^ε, δ) grid.
// Cells report the O-UMP LP optimum (what the paper's linprog reports);
// monotonicity in both axes and the plateau structure are the paper's
// headline shape.
func (r *Runner) Table4() (*Table, error) {
	if err := r.Prewarm(EExpGrid7, DeltaGrid7); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "table4",
		Title:  fmt.Sprintf("Maximum output size λ on e^ε and δ (|D| = %d)", r.pre.Size()),
		Header: append([]string{"e^ε \\ δ"}, formatFloats(DeltaGrid7)...),
	}
	for _, eExp := range EExpGrid7 {
		cells := make([]string, 0, len(DeltaGrid7))
		for _, delta := range DeltaGrid7 {
			plan, err := r.lambdaPlan(params(eExp, delta))
			if err != nil {
				return nil, err
			}
			cells = append(cells, fmt.Sprintf("%.0f", math.Floor(plan.RelaxationObjective)))
		}
		t.AddRow(fmt.Sprintf("%.3f", eExp), cells...)
	}
	t.Note("cells are the LP optimum of O-UMP; the integral released size is its floor after per-pair flooring")
	t.Note("paper's absolute λ values are unattainable under Theorem 1 (λ ≤ #users·budget since Σ_k ln t_ijk ≥ 1); shape targets are monotonicity and the min{ε, ln 1/(1−δ)} plateaus — see EXPERIMENTS.md")
	return t, nil
}

// fig3Config fixes the paper's Fig 3(a)/3(b) parameters: s = 1/500 and
// |O| ≈ 0.229·λ(2, 0.5) (the paper's |O| = 3000 against λ = 13088).
func (r *Runner) fig3Config() (minSupport float64, outputSize int, err error) {
	ref, err := r.referenceLambda()
	if err != nil {
		return 0, 0, err
	}
	return 1.0 / 500, int(0.229 * float64(ref)), nil
}

// Fig3a reports F-UMP Recall over e^ε for each δ in DeltaGrid4.
func (r *Runner) Fig3a() (*Table, error) {
	s, O, err := r.fig3Config()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig3a",
		Title:  fmt.Sprintf("F-UMP Recall on (ε, δ); s = 1/500, |O| = %d", O),
		Header: append([]string{"δ \\ e^ε"}, formatFloats(EExpGrid7)...),
	}
	for _, delta := range DeltaGrid4 {
		cells := make([]string, 0, len(EExpGrid7))
		for _, eExp := range EExpGrid7 {
			plan, effO, err := r.fumpPlan(params(eExp, delta), s, O)
			if err != nil {
				return nil, err
			}
			cells = append(cells, fmt.Sprintf("%.4f%s", r.planRecall(plan, s), clampMark(effO, O)))
		}
		t.AddRow(fmt.Sprintf("δ=%g", delta), cells...)
	}
	t.Note("recall rises with ε until ε = ln 1/(1−δ) saturates the budget, then stays flat (paper Fig 3a)")
	t.Note("* marks cells where λ < |O| forced a smaller output (the paper's corpus never hits this; ours does at tight budgets)")
	return t, nil
}

// clampMark flags cells whose requested |O| was clamped to λ.
func clampMark(effective, requested int) string {
	if effective < requested {
		return "*"
	}
	return ""
}

// Fig3b reports the F-UMP objective (sum of frequent-pair support
// distances) over the same grid as Fig3a.
func (r *Runner) Fig3b() (*Table, error) {
	s, O, err := r.fig3Config()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig3b",
		Title:  fmt.Sprintf("F-UMP sum of support distances on (ε, δ); s = 1/500, |O| = %d", O),
		Header: append([]string{"δ \\ e^ε"}, formatFloats(EExpGrid7)...),
	}
	for _, delta := range DeltaGrid4 {
		cells := make([]string, 0, len(EExpGrid7))
		for _, eExp := range EExpGrid7 {
			plan, effO, err := r.fumpPlan(params(eExp, delta), s, O)
			if err != nil {
				return nil, err
			}
			sum, _, _ := metrics.SupportDistances(r.pre, plan.Counts, s)
			cells = append(cells, fmt.Sprintf("%.4f%s", sum, clampMark(effO, O)))
		}
		t.AddRow(fmt.Sprintf("δ=%g", delta), cells...)
	}
	t.Note("inverse trend of Fig 3a among unclamped cells: distances shrink as the budget grows")
	t.Note("* marks cells clamped to λ < |O|; a clamped forced-size release can score worse than the empty release")
	return t, nil
}

// outputGrid returns the scaled |O| grid anchored at λ(2, 0.5).
func (r *Runner) outputGrid() ([]int, error) {
	ref, err := r.referenceLambda()
	if err != nil {
		return nil, err
	}
	out := make([]int, len(OutputFractions))
	for i, f := range OutputFractions {
		out[i] = int(f * float64(ref))
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out, nil
}

// Table5 reports Recall on (|O|, s) at e^ε = 2, δ = 0.5, with the measured
// minimum Precision across the grid in the notes (the paper reports
// Precision ≡ 1 in all its F-UMP experiments).
func (r *Runner) Table5() (*Table, error) {
	minPrecision := 1.0
	t, err := r.fumpGridTable("table5", "Recall on output size |O| and minimum support s (e^ε = 2, δ = 0.5)",
		func(plan *ump.Plan, s float64) string {
			precision, recall := metrics.PlanPrecisionRecall(r.pre, r.pre, plan.Counts, s)
			minPrecision = math.Min(minPrecision, precision)
			return fmt.Sprintf("%.4f", recall)
		})
	if err != nil {
		return nil, err
	}
	t.Note("measured minimum Precision across the grid: %.4f (paper reports Precision ≡ 1; small-|O| integer granularity can create spurious output-frequent pairs)", minPrecision)
	return t, nil
}

// Table6 reports the sum of support distances on (|O|, s) at e^ε=2, δ=0.5.
func (r *Runner) Table6() (*Table, error) {
	return r.fumpGridTable("table6", "Sum of frequent-pair support distances on |O| and s (e^ε = 2, δ = 0.5)",
		func(plan *ump.Plan, s float64) string {
			sum, _, _ := metrics.SupportDistances(r.pre, plan.Counts, s)
			return fmt.Sprintf("%.4f", sum)
		})
}

// Fig3c reports the average support distance on (s, |O|) at e^ε=2, δ=0.5.
func (r *Runner) Fig3c() (*Table, error) {
	return r.fumpGridTable("fig3c", "Average frequent-pair support distance on s and |O| (e^ε = 2, δ = 0.5)",
		func(plan *ump.Plan, s float64) string {
			_, avg, _ := metrics.SupportDistances(r.pre, plan.Counts, s)
			return fmt.Sprintf("%.6f", avg)
		})
}

func (r *Runner) fumpGridTable(id, title string, cell func(plan *ump.Plan, s float64) string) (*Table, error) {
	grid, err := r.outputGrid()
	if err != nil {
		return nil, err
	}
	p := params(2.0, 0.5)
	head := []string{"s \\ |O|"}
	for _, O := range grid {
		head = append(head, fmt.Sprint(O))
	}
	t := &Table{ID: id, Title: title, Header: head}
	for _, s := range SupportGrid {
		cells := make([]string, 0, len(grid))
		for _, O := range grid {
			plan, _, err := r.fumpPlan(p, s, O)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell(plan, s))
		}
		freq := len(metrics.FrequentPairs(r.pre, s))
		t.AddRow(fmt.Sprintf("1/%d (|S0|=%d)", int(1/s+0.5), freq), cells...)
	}
	t.Note("|O| grid = paper's {3000..8000} rescaled by λ(2, 0.5): fractions %v", OutputFractions)
	return t, nil
}

// speDiversity returns the SPE retained-diversity percentage, cached by
// budget.
func (r *Runner) speDiversity(p dp.Params) (float64, error) {
	key := budgetKey(p)
	r.mu.Lock()
	pct, ok := r.spePct[key]
	r.mu.Unlock()
	if ok {
		return pct, nil
	}
	plan, err := ump.Diversity(r.pre, p, ump.Options{Solver: "spe"})
	if err != nil {
		return 0, err
	}
	pct = 100 * metrics.RetainedDiversity(r.pre, plan.Counts)
	r.mu.Lock()
	r.spePct[key] = pct
	r.mu.Unlock()
	return pct, nil
}

// Fig4 reports the maximum retained query-url pair percentage (D-UMP via
// the SPE heuristic) over the (e^ε, δ) grid of the paper's Figure 4.
func (r *Runner) Fig4() (*Table, error) {
	t := &Table{
		ID:     "fig4",
		Title:  "Maximum retained query-url pair diversity % via SPE on (ε, δ)",
		Header: append([]string{"δ \\ e^ε"}, formatFloats(EExpGrid7)...),
	}
	for _, delta := range DeltaGrid4 {
		cells := make([]string, 0, len(EExpGrid7))
		for _, eExp := range EExpGrid7 {
			pct, err := r.speDiversity(params(eExp, delta))
			if err != nil {
				return nil, err
			}
			cells = append(cells, fmt.Sprintf("%.1f%%", pct))
		}
		t.AddRow(fmt.Sprintf("δ=%g", delta), cells...)
	}
	t.Note("same saturation structure as Fig 3a; diversity is capped well below 100%% by Theorem 1")
	return t, nil
}

// solverSet returns the Table 7 lineup with experiment-budgeted options.
func (r *Runner) solverSet() []bip.Solver {
	return []bip.Solver{
		bip.SPE{},
		bip.SPEViolated{},
		bip.BranchBound{NodeLimit: r.cfg.BBNodes},
		bip.Rounding{},
		bip.Greedy{},
		bip.FeasPump{MaxIter: r.cfg.FeasPumpIter},
	}
}

// solverComparison runs every solver over a parameter axis, returning
// retained-diversity percentages.
func (r *Runner) solverComparison(id, title, axisLabel string, axis []float64, paramsOf func(float64) dp.Params) (*Table, error) {
	head := []string{"solver \\ " + axisLabel}
	for _, v := range axis {
		head = append(head, fmt.Sprintf("%g", v))
	}
	t := &Table{ID: id, Title: title, Header: head}
	type cellKey struct {
		solver string
		budget uint64
	}
	cache := map[cellKey]float64{}
	for _, s := range r.solverSet() {
		cells := make([]string, 0, len(axis))
		for _, v := range axis {
			p := paramsOf(v)
			key := cellKey{s.Name(), budgetKey(p)}
			pct, ok := cache[key]
			if !ok {
				cons, err := dp.Build(r.pre, p)
				if err != nil {
					return nil, err
				}
				sol, err := s.Solve(cons)
				if err != nil {
					return nil, err
				}
				pct = 100 * float64(sol.Objective) / float64(r.pre.NumPairs())
				cache[key] = pct
			}
			cells = append(cells, fmt.Sprintf("%.1f%%", pct))
		}
		t.AddRow(s.Name(), cells...)
	}
	t.Note("branchbound limited to %d nodes, feaspump to %d rounds (NEOS-default stand-ins; see DESIGN.md §2)", r.cfg.BBNodes, r.cfg.FeasPumpIter)
	return t, nil
}

// Table7a compares the BIP solvers across δ at e^ε = 2.
func (r *Runner) Table7a() (*Table, error) {
	return r.solverComparison("table7a",
		"Retained diversity % of BIP solvers across δ (e^ε = 2)", "δ",
		DeltaGrid6, func(d float64) dp.Params { return params(2.0, d) })
}

// Table7b compares the BIP solvers across e^ε at δ = 0.1.
func (r *Runner) Table7b() (*Table, error) {
	return r.solverComparison("table7b",
		"Retained diversity % of BIP solvers across e^ε (δ = 0.1)", "e^ε",
		EExpGrid6, func(e float64) dp.Params { return params(e, 0.1) })
}

// Fig5 times each BIP solver on the paper's D-UMP instance
// (e^ε = 1.7, δ = 10⁻³), reproducing the log-scale runtime comparison.
func (r *Runner) Fig5() (*Table, error) {
	cons, err := dp.Build(r.pre, params(1.7, 1e-3))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig5",
		Title:  "BIP solver runtime for D-UMP (e^ε = 1.7, δ = 10⁻³)",
		Header: []string{"solver", "runtime", "retained"},
	}
	for _, s := range r.solverSet() {
		start := time.Now()
		sol, err := s.Solve(cons)
		if err != nil {
			return nil, err
		}
		t.AddRow(s.Name(), time.Since(start).Round(time.Microsecond).String(), fmt.Sprint(sol.Objective))
	}
	t.Note("paper reports SPE fastest by orders of magnitude on a log-scale axis; compare rows")
	return t, nil
}

// Fig6 averages the triplet DiffRatio histogram (Equation 10) over
// SampleReps sampled outputs, in two regimes:
//
//   - "release" rows: the actual differentially private F-UMP release at
//     the paper's parameters (e^ε = 2, δ = 0.5, s = 1/500) for the two |O|
//     anchors. Theorem 1 bounds λ ≤ #users · budget, so the release's
//     resolution 1/|O| is far coarser than any triplet's support and the
//     strict Equation-10 ratio saturates at 100% — a structural consequence
//     the paper's (unattainably large) λ values mask.
//   - "sampler" rows: the multinomial sampling step isolated from the count
//     plan, run at identity scale (x_ij = c_ij, the §3.2/Figure 1
//     illustration). This is what Figure 6 was designed to show: the
//     query-url-user histogram shape survives sampling. Triplets with
//     c_ijk ≥ 6 (above the sampler's own noise floor) are binned.
func (r *Runner) Fig6() (*Table, error) {
	ref, err := r.referenceLambda()
	if err != nil {
		return nil, err
	}
	p := params(2.0, 0.5)
	s := 1.0 / 500
	t := &Table{
		ID:     "fig6",
		Title:  "Average # of distinct triplets per DiffRatio bucket (sampled outputs)",
		Header: []string{"row \\ bucket", "0-10%", "10-20%", "20-30%", "30-40%", "40-50%", "50-60%", "60-70%", "70-80%", "80-90%", "90-100%+", "≤40% share"},
	}
	addRow := func(label string, sums []float64) {
		cells := make([]string, 0, 11)
		total := 0.0
		for _, v := range sums {
			total += v
		}
		cum, share40 := 0.0, 0.0
		for i, v := range sums {
			cells = append(cells, fmt.Sprintf("%.1f", v/float64(r.cfg.SampleReps)))
			cum += v
			if i == 3 && total > 0 {
				share40 = cum / total
			}
		}
		cells = append(cells, fmt.Sprintf("%.0f%%", 100*share40))
		t.AddRow(label, cells...)
	}

	// Release rows: strict Equation 10 on the DP release.
	for _, frac := range []float64{0.306, 0.458} { // paper's 4000, 6000 over λ=13088
		O := int(frac * float64(ref))
		if O < 1 {
			O = 1
		}
		plan, _, err := r.fumpPlan(p, s, O)
		if err != nil {
			return nil, err
		}
		sums := make([]float64, 10)
		g := rng.New(r.cfg.Seed + 17)
		for rep := 0; rep < r.cfg.SampleReps; rep++ {
			out, err := sampling.Output(g, r.pre, plan.Counts)
			if err != nil {
				return nil, err
			}
			for i, h := range metrics.TripletHistogram(r.pre, out, 10, s, 0) {
				sums[i] += float64(h)
			}
		}
		addRow(fmt.Sprintf("release |O|=%d", O), sums)
	}

	// Sampler rows: identity-scale multinomial sampling (x_ij = c_ij), the
	// paper's §3.2 shape-preservation property, Equation 10 and the
	// conditional share on triplets above the noise floor.
	identity := make([]int, r.pre.NumPairs())
	for i := range identity {
		identity[i] = r.pre.PairCount(i)
	}
	const noiseFloor = 6
	eq10 := make([]float64, 10)
	cond := make([]float64, 10)
	g := rng.New(r.cfg.Seed + 31)
	for rep := 0; rep < r.cfg.SampleReps; rep++ {
		out, err := sampling.Output(g, r.pre, identity)
		if err != nil {
			return nil, err
		}
		for i, h := range metrics.TripletHistogram(r.pre, out, 10, 0, noiseFloor) {
			eq10[i] += float64(h)
		}
		for i, h := range metrics.ConditionalTripletHistogram(r.pre, out, 10, 0, noiseFloor) {
			cond[i] += float64(h)
		}
	}
	addRow("sampler eq10", eq10)
	addRow("sampler cond", cond)

	t.Note("release rows: DP release at e^ε=2, δ=0.5, s=1/500, all frequent-pair triplets; Theorem 1's λ bound pins them to the last bucket (see EXPERIMENTS.md)")
	t.Note("sampler rows: identity-scale sampling (x_ij = c_ij, not a DP release), triplets with c_ijk ≥ %d; reproduces the paper's headline (most triplets below 40%%)", noiseFloor)
	t.Note("paper: ≈75%% (|O|=4000) and ≈90%% (|O|=6000) of triplets below 40%% DiffRatio")
	return t, nil
}

// Experiments lists every experiment ID in paper order.
func Experiments() []string {
	return []string{"table3", "table4", "fig3a", "fig3b", "fig3c", "table5", "table6", "fig4", "table7a", "table7b", "fig5", "fig6"}
}

// Run regenerates one experiment by ID.
func (r *Runner) Run(id string) (*Table, error) {
	switch id {
	case "table3":
		return r.Table3()
	case "table4":
		return r.Table4()
	case "fig3a":
		return r.Fig3a()
	case "fig3b":
		return r.Fig3b()
	case "fig3c":
		return r.Fig3c()
	case "table5":
		return r.Table5()
	case "table6":
		return r.Table6()
	case "fig4":
		return r.Fig4()
	case "table7a":
		return r.Table7a()
	case "table7b":
		return r.Table7b()
	case "fig5":
		return r.Fig5()
	case "fig6":
		return r.Fig6()
	case "frontier":
		return r.Frontier()
	case "combined-sweep":
		return r.CombinedSweep()
	case "querydiv":
		return r.QueryDiv()
	case "baseline-compare":
		return r.BaselineCompare()
	case "mechanism-frontier":
		return r.MechanismFrontier()
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v and extensions %v)", id, Experiments(), ExtensionExperiments())
}

// RunAll regenerates every experiment in paper order.
func (r *Runner) RunAll() ([]*Table, error) {
	var out []*Table
	for _, id := range Experiments() {
		t, err := r.Run(id)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

func formatFloats(vals []float64) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%g", v)
	}
	return out
}
