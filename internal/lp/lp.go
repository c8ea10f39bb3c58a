// Package lp implements a self-contained linear programming solver: a
// bounded-variable, two-phase revised simplex method with sparse constraint
// columns and a sparse LU factorization of the basis, updated by product-form
// etas between refactorizations.
//
// The solver targets the optimization problems of the paper's utility
// maximization (O-UMP and F-UMP and the LP relaxations used by the BIP
// solvers): thousands of variables, thousands of rows, very sparse
// non-negative constraint matrices. It supports
//
//   - minimization and maximization,
//   - ≤, ≥ and = rows,
//   - per-variable lower/upper bounds (upper may be +Inf),
//   - dual values and reduced costs for optimality certification.
//
// Every variable must have at least one finite bound (free variables are not
// needed by any model in this repository and are rejected).
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the optimization direction.
type Sense int

const (
	// Minimize the objective.
	Minimize Sense = iota
	// Maximize the objective.
	Maximize
)

// Op is a row comparison operator.
type Op int

const (
	// LE is a ≤ row.
	LE Op = iota
	// GE is a ≥ row.
	GE
	// EQ is an = row.
	EQ
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Status is the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies the constraints and bounds.
	Infeasible
	// Unbounded means the objective is unbounded over the feasible region.
	Unbounded
	// IterLimit means the iteration budget was exhausted.
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// nz is one sparse matrix entry within a column.
type nz struct {
	row int32
	val float64
}

// Problem is a linear program under construction. The zero value is not
// usable; call NewProblem.
type Problem struct {
	sense Sense
	obj   []float64
	lower []float64
	upper []float64
	cols  [][]nz
	ops   []Op
	rhs   []float64
}

// NewProblem returns an empty problem with the given optimization sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// Sense returns the optimization direction.
func (p *Problem) Sense() Sense { return p.sense }

// NumVariables returns the number of structural variables added so far.
func (p *Problem) NumVariables() int { return len(p.obj) }

// NumConstraints returns the number of rows added so far.
func (p *Problem) NumConstraints() int { return len(p.ops) }

// AddVariable adds a variable with the given objective coefficient and
// bounds, returning its index. Upper may be math.Inf(1); lower may be
// math.Inf(-1) only if upper is finite.
func (p *Problem) AddVariable(obj, lower, upper float64) int {
	p.obj = append(p.obj, obj)
	p.lower = append(p.lower, lower)
	p.upper = append(p.upper, upper)
	p.cols = append(p.cols, nil)
	return len(p.obj) - 1
}

// AddConstraint adds an empty row "· op rhs" and returns its index. Populate
// it with SetCoef.
func (p *Problem) AddConstraint(op Op, rhs float64) int {
	p.ops = append(p.ops, op)
	p.rhs = append(p.rhs, rhs)
	return len(p.ops) - 1
}

// SetCoef sets the coefficient of variable col in row. Setting the same cell
// twice accumulates, which never happens in this repository's models but is
// the cheapest well-defined behaviour for a column-list representation.
func (p *Problem) SetCoef(row, col int, v float64) {
	if v == 0 {
		return
	}
	p.cols[col] = append(p.cols[col], nz{row: int32(row), val: v})
}

// RHS returns the right-hand side of a row.
func (p *Problem) RHS(row int) float64 { return p.rhs[row] }

// validate checks structural well-formedness before solving.
func (p *Problem) validate() error {
	for j := range p.obj {
		lo, up := p.lower[j], p.upper[j]
		if math.IsInf(lo, -1) && math.IsInf(up, 1) {
			return fmt.Errorf("lp: variable %d is free (no finite bound)", j)
		}
		if lo > up {
			return fmt.Errorf("lp: variable %d has empty bound interval [%g, %g]", j, lo, up)
		}
		if math.IsNaN(lo) || math.IsNaN(up) || math.IsNaN(p.obj[j]) {
			return fmt.Errorf("lp: variable %d has NaN data", j)
		}
		for _, e := range p.cols[j] {
			if int(e.row) >= len(p.ops) || e.row < 0 {
				return fmt.Errorf("lp: variable %d references row %d out of range", j, e.row)
			}
			if math.IsNaN(e.val) || math.IsInf(e.val, 0) {
				return fmt.Errorf("lp: variable %d has non-finite coefficient %g", j, e.val)
			}
		}
	}
	for i, r := range p.rhs {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("lp: row %d has non-finite rhs %g", i, r)
		}
	}
	return nil
}

// Basis statuses, matching the solver's internal nonbasic/basic encoding.
const (
	// BasisAtLower marks a variable nonbasic at its lower bound (or a row
	// whose logical column is nonbasic).
	BasisAtLower int8 = iota
	// BasisAtUpper marks a variable nonbasic at its upper bound.
	BasisAtUpper
	// BasisBasic marks a basic variable (or a row whose logical — slack,
	// surplus or artificial — is basic).
	BasisBasic
)

// Basis is a problem-space snapshot of a simplex basis: one status per
// structural variable and one per row describing the row's logical column.
// A Solution carries the final basis, and Options.WarmStart accepts one to
// seed a later solve of the same (or a structurally similar) problem. Warm
// starts are validated — shape, nonsingularity, primal feasibility under
// the new data — and silently fall back to a cold start when the snapshot
// does not fit, so they can never change which solutions are optimal, only
// how fast one is found.
type Basis struct {
	// Vars holds BasisAtLower/BasisAtUpper/BasisBasic per structural
	// variable.
	Vars []int8
	// Rows holds, per constraint row, BasisBasic when the row's logical
	// column is basic and BasisAtLower otherwise.
	Rows []int8
}

// Clone returns a deep copy (snapshots are retained across solves; callers
// that cache them should not alias solver-owned memory).
func (b *Basis) Clone() *Basis {
	if b == nil {
		return nil
	}
	return &Basis{
		Vars: append([]int8(nil), b.Vars...),
		Rows: append([]int8(nil), b.Rows...),
	}
}

// Solution is the result of a solve.
type Solution struct {
	// Status is the solve outcome. X/Objective are meaningful only for
	// Optimal (and best-effort for IterLimit).
	Status Status
	// Objective is the objective value in the problem's original sense.
	Objective float64
	// X holds the structural variable values.
	X []float64
	// Dual holds one multiplier per row, in the original sense: for an
	// Optimal solution, Objective = Σ_i Dual[i]·rhs[i] + Σ_j ReducedCost[j]·bound_j
	// where bound_j is the bound the variable sits at (0 contribution for
	// basic variables).
	Dual []float64
	// ReducedCost holds the reduced cost of each structural variable in the
	// original sense.
	ReducedCost []float64
	// Iterations is the total simplex iterations across both phases.
	Iterations int
	// Basis is the final basis snapshot (Optimal and IterLimit solves),
	// usable as Options.WarmStart for a subsequent solve.
	Basis *Basis
	// Stats counts the mechanical work the solve performed, for
	// instrumentation and perf attribution.
	Stats SolveStats
}

// SolveStats describes where a solve spent its effort. All counters cover
// the single Solve call that produced them.
type SolveStats struct {
	// PresolveRows is the number of constraint rows presolve dropped
	// (singleton, redundant and empty rows).
	PresolveRows int
	// PresolveCols is the number of variables presolve fixed to a single
	// value (empty columns and bound-collapsed variables).
	PresolveCols int
	// Refactorizations counts basis factorizations, including the initial
	// (cold or warm) one, so it is at least 1 for any solve that ran.
	Refactorizations int
	// EtaLength is the peak product-form eta-file length observed between
	// refactorizations.
	EtaLength int
	// WarmAttempted reports that a warm-start basis was supplied.
	WarmAttempted bool
	// WarmAccepted reports that the warm basis was installed; false with
	// WarmAttempted set means the solver fell back to a cold start.
	WarmAccepted bool
}

// Options tune the solver.
type Options struct {
	// MaxIterations bounds total pivots; 0 means 50·(m+n)+10000.
	MaxIterations int
	// Tol is the feasibility/optimality tolerance; 0 means 1e-9 scaled
	// internally.
	Tol float64
	// WarmStart seeds the solve with a prior basis snapshot. Invalid or
	// infeasible snapshots fall back to a cold start.
	WarmStart *Basis
	// NoPresolve disables the presolve reductions (empty/always-slack row
	// elimination, empty-column fixing, singleton-row bound tightening).
	NoPresolve bool
}

// ErrBadProblem wraps structural validation errors.
var ErrBadProblem = errors.New("lp: malformed problem")

// Solve runs the two-phase revised simplex method on the problem: presolve
// (unless disabled), warm or cold start, iterate, postsolve.
func Solve(p *Problem, opts Options) (*Solution, error) {
	return solveWith(p, opts, newLUFactor)
}

// solveWith is Solve with the basis factorization supplied by newFactor.
// Production always passes newLUFactor; tests pass a dense reference
// factorization to cross-check the sparse one.
func solveWith(p *Problem, opts Options, newFactor func(m int) basisFactor) (*Solution, error) {
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProblem, err)
	}
	if opts.NoPresolve {
		return solveCore(p, opts, opts.WarmStart, newFactor)
	}
	ps := presolveProblem(p)
	if ps.infeasible {
		return infeasibleSolution(p), nil
	}
	sol, err := solveCore(ps.reduced, opts, ps.mapWarm(opts.WarmStart), newFactor)
	if err != nil {
		return nil, err
	}
	out := ps.postsolve(p, sol)
	out.Stats = sol.Stats
	// mapWarm can reject a snapshot before solveCore sees it; attempted
	// reflects the caller's request, not what survived the mapping.
	out.Stats.WarmAttempted = opts.WarmStart != nil
	out.Stats.PresolveRows = p.NumConstraints() - ps.reduced.NumConstraints()
	for j := 0; j < p.NumVariables(); j++ {
		if ps.reduced.lower[j] == ps.reduced.upper[j] && p.lower[j] != p.upper[j] {
			out.Stats.PresolveCols++
		}
	}
	return out, nil
}

// solveCore runs the simplex proper on an already-reduced problem.
func solveCore(p *Problem, opts Options, warm *Basis, newFactor func(m int) basisFactor) (*Solution, error) {
	s := newSolver(p, opts, newFactor)
	warmAccepted := warm != nil && s.warmStart(warm)
	if !warmAccepted {
		s.coldStart()
	}
	sol, err := s.solve()
	if sol != nil {
		s.sampleEta()
		sol.Stats.WarmAttempted = warm != nil
		sol.Stats.WarmAccepted = warmAccepted
		sol.Stats.Refactorizations = s.refactors
		sol.Stats.EtaLength = s.etaPeak
	}
	return sol, err
}
