// Package dp implements the paper's privacy machinery: the
// (ε, δ)-probabilistic differential privacy parameters (Definition 2), the
// per-user-log linear constraints of Theorem 1 (Equation 4), the one
// incremental feasibility walk over them, a verifier that audits a plan of
// output counts against those conditions, an exact
// Definition-2 checker for small enumerable logs, and the §4.2 end-to-end
// pieces (sensitivity bounding and the Laplace mechanism over the optimal
// counts).
package dp

import (
	"errors"
	"fmt"
	"math"

	"dpslog/internal/searchlog"
)

// Params are the probabilistic differential privacy parameters of
// Definition 2.
type Params struct {
	// Eps is ε > 0; the paper's grids are expressed as e^ε.
	Eps float64
	// Delta is δ ∈ (0, 1), the probability mass allowed for the
	// privacy-breaching output set Ω₁.
	Delta float64
}

// FromEExp builds Params from the paper's e^ε parameterization.
func FromEExp(eExpEps, delta float64) Params {
	return Params{Eps: math.Log(eExpEps), Delta: delta}
}

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	if !(p.Eps > 0) || math.IsInf(p.Eps, 1) || math.IsNaN(p.Eps) {
		return fmt.Errorf("dp: ε must be positive and finite, got %g", p.Eps)
	}
	if !(p.Delta > 0 && p.Delta < 1) {
		return fmt.Errorf("dp: δ must lie in (0, 1), got %g", p.Delta)
	}
	return nil
}

// Budget returns the combined right-hand side min{ε, ln 1/(1−δ)} that merges
// Conditions 2 and 3 of Theorem 1 into one linear constraint per user log
// (Equation 4 of the paper).
func (p Params) Budget() float64 {
	return math.Min(p.Eps, math.Log(1/(1-p.Delta)))
}

// MinDeltaFor returns the smallest δ compatible with a release at ε under
// the merged Theorem-1 budget: Condition 3 requires ln 1/(1−δ) ≥ ε, i.e.
// δ ≥ 1 − e^(−ε). Frontier sweeps that report "the δ this ε needs" must use
// this helper rather than re-deriving the coupling locally (budgetarith
// enforces that ε/δ arithmetic stays inside the budget packages).
func MinDeltaFor(eps float64) float64 {
	return 1 - math.Exp(-eps)
}

// Feasibility margins of the Theorem-1 row comparisons. Every comparison of
// a row's activity against the budget uses one of these two; each site keeps
// the margin it has always used, because changing one would move plans.
const (
	// AuditTol is the slack of the release audits (Verify, VerifyLog) and of
	// the BIP heuristics in internal/bip.
	AuditTol = 1e-9
	// FillTol is the slack of RepairPlan and of the integral fills in
	// internal/ump (LP round-up, Q-UMP greedy, MinPrivacy's bisection fill).
	FillTol = 1e-12
)

// Term is one coefficient of a user's DP constraint: pair index and
// ln t_ijk = ln(c_ij / (c_ij − c_ijk)).
type Term struct {
	Pair int
	Coef float64
}

// Row is the linear DP constraint contributed by one user log A_k:
// Σ_t x[t.Pair]·t.Coef ≤ Budget.
type Row struct {
	User  int
	Terms []Term
}

// colTerm is one coefficient seen from its pair: the user row it sits in
// and ln t_ijk.
type colTerm struct {
	row  int
	coef float64
}

// Constraints is the full DP constraint system for a preprocessed log: the
// one Theorem-1 matrix every solver, fill and audit reads. Construct it with
// Build, BuildRows or NewConstraints, which also build the pair-major view;
// it is never mutated afterwards, so one system may be shared across
// goroutines.
type Constraints struct {
	// Rows has one entry per user log, in user-index order.
	Rows []Row
	// Budget is min{ε, ln 1/(1−δ)}.
	Budget float64
	// NumPairs is the variable count (pair count of the log).
	NumPairs int

	// cols is the pair-major view: cols[i] lists pair i's coefficients in
	// ascending row order.
	cols [][]colTerm
}

// ErrNotPreprocessed reports a log still containing unique pairs; constraint
// coefficients would be infinite for them (Condition 1 of Theorem 1).
var ErrNotPreprocessed = errors.New("dp: log contains unique query-url pairs; run searchlog.Preprocess first")

// Coef returns ln t_ijk = ln(c_ij/(c_ij − c_ijk)). It is +Inf when the user
// holds the whole pair, which is exactly the unique-pair case preprocessing
// removes.
func Coef(cij, cijk int) float64 {
	if cijk <= 0 {
		return 0
	}
	if cijk >= cij {
		return math.Inf(1)
	}
	return math.Log(float64(cij) / float64(cij-cijk))
}

// Build derives the Theorem-1 constraint system from a preprocessed log.
func Build(l *searchlog.Log, p Params) (*Constraints, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c, err := BuildRows(l)
	if err != nil {
		return nil, err
	}
	c.Budget = p.Budget()
	return c, nil
}

// BuildRows derives the Theorem-1 rows of a preprocessed log without a
// budget (Budget is +Inf); callers that search over budgets, such as the §7
// breach-minimizing problem, attach one with WithBudget.
func BuildRows(l *searchlog.Log) (*Constraints, error) {
	if !searchlog.IsPreprocessed(l) {
		return nil, ErrNotPreprocessed
	}
	rows := make([]Row, l.NumUsers())
	for k := range rows {
		u := l.User(k)
		row := Row{User: k, Terms: make([]Term, 0, len(u.Pairs))}
		for _, up := range u.Pairs {
			coef := Coef(l.PairCount(up.Pair), up.Count)
			if math.IsInf(coef, 1) {
				return nil, fmt.Errorf("dp: user %d holds all of pair %d (c_ijk = c_ij = %d): %w",
					k, up.Pair, up.Count, ErrNotPreprocessed)
			}
			row.Terms = append(row.Terms, Term{Pair: up.Pair, Coef: coef})
		}
		rows[k] = row
	}
	return newConstraints(l.NumPairs(), math.Inf(1), rows), nil
}

// NewConstraints assembles a system from explicit rows (packing instances
// that do not come from a log, such as solver tests) after checking it with
// Validate.
func NewConstraints(numPairs int, budget float64, rows []Row) (*Constraints, error) {
	c := &Constraints{Rows: rows, Budget: budget, NumPairs: numPairs}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return newConstraints(numPairs, budget, rows), nil
}

// newConstraints attaches the pair-major view to well-formed rows.
func newConstraints(numPairs int, budget float64, rows []Row) *Constraints {
	cols := make([][]colTerm, numPairs)
	for k, row := range rows {
		for _, t := range row.Terms {
			cols[t.Pair] = append(cols[t.Pair], colTerm{row: k, coef: t.Coef})
		}
	}
	return &Constraints{Rows: rows, Budget: budget, NumPairs: numPairs, cols: cols}
}

// Validate checks the packing structure every solver relies on: a positive
// finite budget, and non-negative finite coefficients on in-range pairs.
func (c *Constraints) Validate() error {
	if c.NumPairs < 0 {
		return fmt.Errorf("dp: negative pair count %d", c.NumPairs)
	}
	if !(c.Budget > 0) || math.IsInf(c.Budget, 1) {
		return fmt.Errorf("dp: budget must be positive and finite, got %g", c.Budget)
	}
	for k, row := range c.Rows {
		for _, t := range row.Terms {
			if t.Pair < 0 || t.Pair >= c.NumPairs {
				return fmt.Errorf("dp: row %d references pair %d out of range", k, t.Pair)
			}
			if !(t.Coef >= 0) || math.IsInf(t.Coef, 1) {
				return fmt.Errorf("dp: row %d pair %d has invalid coefficient %g", k, t.Pair, t.Coef)
			}
		}
	}
	return nil
}

// WithBudget returns the same rows under another budget, sharing the rows
// and the pair-major view.
func (c *Constraints) WithBudget(budget float64) *Constraints {
	cc := *c
	cc.Budget = budget
	return &cc
}

// LHS returns Σ x·coef for one row given the plan of output counts.
func (c *Constraints) LHS(row int, counts []int) float64 {
	s := 0.0
	for _, t := range c.Rows[row].Terms {
		s += float64(float64(counts[t.Pair]) * t.Coef)
	}
	return s
}

// Walk is the one incremental Theorem-1 feasibility check: each row's
// running activity under a plan that grows or shrinks one unit at a time.
// Every integral fill (internal/ump) and BIP heuristic (internal/bip) takes
// its "one more unit if every touched row still fits" step here. Because the
// constraint matrix is non-negative, every unit Add accepts keeps the plan
// within the budget.
type Walk struct {
	c   *Constraints
	tol float64
	lhs []float64
}

// NewWalk starts a walk at the plan counts (nil for the empty plan) with
// feasibility margin tol (AuditTol or FillTol).
func (c *Constraints) NewWalk(counts []int, tol float64) *Walk {
	w := &Walk{c: c, tol: tol, lhs: make([]float64, len(c.Rows))}
	if counts != nil {
		for k := range w.lhs {
			w.lhs[k] = c.LHS(k, counts)
		}
	}
	return w
}

// Fits reports whether row k is within the budget.
func (w *Walk) Fits(k int) bool { return w.lhs[k] <= w.c.Budget+w.tol }

// Add takes one more unit of pair i when every row it touches stays within
// the budget, and reports whether it did.
func (w *Walk) Add(i int) bool {
	col := w.c.cols[i]
	for _, e := range col {
		if w.lhs[e.row]+e.coef > w.c.Budget+w.tol {
			return false
		}
	}
	for _, e := range col {
		w.lhs[e.row] += e.coef
	}
	return true
}

// Remove gives back one unit of pair i and returns how many of the rows it
// touches it brought back within the budget.
func (w *Walk) Remove(i int) int {
	restored := 0
	for _, e := range w.c.cols[i] {
		over := !w.Fits(e.row)
		w.lhs[e.row] -= e.coef
		if over && w.Fits(e.row) {
			restored++
		}
	}
	return restored
}

// Violation describes one user-log constraint exceeded by a plan.
type Violation struct {
	User   int
	LHS    float64
	Budget float64
}

func (v Violation) Error() string {
	return fmt.Sprintf("dp: user %d constraint violated: %.9g > budget %.9g", v.User, v.LHS, v.Budget)
}

// Verify audits a plan of output counts against the full Theorem-1 system:
// Condition 1 (unique pairs zeroed — vacuous for a preprocessed log) and the
// merged Conditions 2/3 per user log, to AuditTol. It returns all
// violations.
func (c *Constraints) Verify(counts []int) []Violation {
	var out []Violation
	for k := range c.Rows {
		if lhs := c.LHS(k, counts); lhs > c.Budget+AuditTol {
			out = append(out, Violation{User: k, LHS: lhs, Budget: c.Budget})
		}
	}
	return out
}

// VerifyLog is the standalone audit used by the public API: it recomputes
// the constraints for the (possibly non-preprocessed) input log and checks a
// plan expressed over that log's pair indices. It deliberately reads no
// Constraints: as the release audit it stays independent of the system the
// solvers read. Unique pairs must have a zero planned count (Condition 1),
// every user row must satisfy the merged budget (Conditions 2/3), and counts
// must be non-negative.
func VerifyLog(l *searchlog.Log, p Params, counts []int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(counts) != l.NumPairs() {
		return fmt.Errorf("dp: %d counts for %d pairs", len(counts), l.NumPairs())
	}
	budget := p.Budget()
	for i, x := range counts {
		if x < 0 {
			return fmt.Errorf("dp: negative planned count %d for pair %d", x, i)
		}
		if x > 0 && l.Pair(i).IsUnique() {
			return fmt.Errorf("dp: unique pair %d has positive planned count %d (Condition 1)", i, x)
		}
	}
	for k := 0; k < l.NumUsers(); k++ {
		u := l.User(k)
		lhs := 0.0
		for _, up := range u.Pairs {
			if counts[up.Pair] == 0 {
				continue
			}
			coef := Coef(l.PairCount(up.Pair), up.Count)
			lhs += float64(float64(counts[up.Pair]) * coef)
		}
		if lhs > budget+AuditTol {
			return Violation{User: k, LHS: lhs, Budget: budget}
		}
	}
	return nil
}

// BreachProbability returns the exact probability that user k appears in the
// output (Equation 2): 1 − Π_{(i,j)∈A_k} ((c_ij−c_ijk)/c_ij)^{x_ij}. Under a
// verified plan this is ≤ δ for every user.
func BreachProbability(l *searchlog.Log, k int, counts []int) float64 {
	u := l.User(k)
	logSurvive := 0.0
	for _, up := range u.Pairs {
		x := counts[up.Pair]
		if x == 0 {
			continue
		}
		cij := l.PairCount(up.Pair)
		if up.Count >= cij {
			return 1 // unique pair with positive count: certain breach
		}
		logSurvive += float64(float64(x) * math.Log(float64(cij-up.Count)/float64(cij)))
	}
	return 1 - math.Exp(logSurvive)
}

// WorstCaseRatio returns the exact supremum over Ω₂ of
// Pr[R(D′)=O]/Pr[R(D)=O] for the neighbor removing user k (Equation 3):
// Π_{(i,j)∈A_k} (c_ij/(c_ij−c_ijk))^{x_ij}. Under a verified plan this is
// ≤ e^ε for every user.
func WorstCaseRatio(l *searchlog.Log, k int, counts []int) float64 {
	u := l.User(k)
	logRatio := 0.0
	for _, up := range u.Pairs {
		x := counts[up.Pair]
		if x == 0 {
			continue
		}
		coef := Coef(l.PairCount(up.Pair), up.Count)
		if math.IsInf(coef, 1) {
			return math.Inf(1)
		}
		logRatio += float64(float64(x) * coef)
	}
	return math.Exp(logRatio)
}
