// Package bip implements the binary integer program of the paper's D-UMP
// (Equation 8) and five solvers for it. The program is Theorem 1's
// constraint system with a binary x, read directly from *dp.Constraints:
// columns are the log's pairs and every user-log row has the right-hand side
// Budget = min{ε, ln 1/(1−δ)}:
//
//	maximize   Σ_j y_j
//	subject to Σ_{j∈A_k} y_j·ln t_ijk ≤ Budget   for every user log A_k
//	           y_j ∈ {0, 1}
//
// The matrix is sparse and non-negative (coefficients ln t_ijk > 0), so
// dropping a column never breaks a row. Every row comparison goes through
// dp.Walk or Constraints.Verify with dp's audit margin, dp.AuditTol.
//
// The paper compares its SPE heuristic (Algorithm 2) against Matlab
// bintprog and the NEOS solvers qsopt_ex, scip and feaspump (Table 7,
// Figure 5). Those solvers are closed-source services, so this package
// substitutes the canonical algorithm each one represents, behind a common
// Solver interface:
//
//	spe          — the paper's Sensitive query-url Pair Eliminating heuristic
//	spe-violated — ablation: eliminate only from currently violated rows
//	branchbound  — LP-based branch & bound (the bintprog algorithm)
//	feaspump     — feasibility pump + greedy improvement (NEOS feaspump)
//	rounding     — exact LP relaxation + guided rounding (qsopt_ex-style)
//	greedy       — constraint-aware greedy insertion (stand-in for scip's
//	               primal heuristics)
package bip

import "dpslog/internal/dp"

// Objective counts the selected columns.
func Objective(y []bool) int {
	n := 0
	for _, v := range y {
		if v {
			n++
		}
	}
	return n
}

// counts expresses a selection as a 0/1 plan of output counts.
func counts(y []bool) []int {
	x := make([]int, len(y))
	for j, v := range y {
		if v {
			x[j] = 1
		}
	}
	return x
}

// feasible reports whether the selection satisfies every row of c.
func feasible(c *dp.Constraints, y []bool) bool {
	return len(c.Verify(counts(y))) == 0
}

// Solution is a feasible selection with its objective value.
type Solution struct {
	Y         []bool
	Objective int
	// Optimal reports whether the solver proved optimality (branch & bound
	// within its node budget; false for heuristics even when they happen to
	// find the optimum).
	Optimal bool
	// Nodes counts branch & bound nodes or heuristic iterations, for the
	// runtime comparisons of Figure 5.
	Nodes int
}

// Counts returns the selection as a 0/1 plan of output counts.
func (s *Solution) Counts() []int { return counts(s.Y) }

// Solver is a D-UMP BIP solver.
type Solver interface {
	// Name is the registry key, e.g. "spe".
	Name() string
	// Solve returns a feasible solution. Implementations must never return
	// an infeasible selection; heuristics return their best effort.
	Solve(c *dp.Constraints) (*Solution, error)
}
