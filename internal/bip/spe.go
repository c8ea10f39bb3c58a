package bip

import (
	"sort"

	"dpslog/internal/dp"
)

// SPE is the paper's Algorithm 2, the Sensitive query-url Pair Eliminating
// heuristic: start with every pair retained, then repeatedly find the
// globally largest coefficient t_ijk in the constraint matrix whose column
// is still selected and drop that column, until every differential privacy
// constraint is satisfied. Dropping the largest t_ijk removes the pair most
// dominated by a single user — the most privacy-sensitive pair.
//
// The sorted-entry implementation runs in O(E log E) for E matrix entries,
// consistent with (and slightly better than) the paper's stated
// O(n² log mn).
type SPE struct{}

// Name implements Solver.
func (SPE) Name() string { return "spe" }

// Solve implements Solver.
func (SPE) Solve(c *dp.Constraints) (*Solution, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	y, w := selectAll(c)
	violated := 0
	for k := range c.Rows {
		if !w.Fits(k) {
			violated++
		}
	}
	if violated == 0 {
		return &Solution{Y: y, Objective: Objective(y)}, nil
	}

	type entry struct {
		row, col int
		coef     float64
	}
	var entries []entry
	for k, row := range c.Rows {
		for _, t := range row.Terms {
			entries = append(entries, entry{row: k, col: t.Pair, coef: t.Coef})
		}
	}
	// Descending coefficient; ties broken by column then row for determinism.
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].coef != entries[b].coef {
			return entries[a].coef > entries[b].coef
		}
		if entries[a].col != entries[b].col {
			return entries[a].col < entries[b].col
		}
		return entries[a].row < entries[b].row
	})

	nodes := 0
	for _, e := range entries {
		if violated == 0 {
			break
		}
		if !y[e.col] {
			continue
		}
		// Eliminate the column holding the current global maximum t_ijk.
		y[e.col] = false
		nodes++
		violated -= w.Remove(e.col)
	}
	return &Solution{Y: y, Objective: Objective(y), Nodes: nodes}, nil
}

// selectAll returns the all-retained selection and its walk.
func selectAll(c *dp.Constraints) ([]bool, *dp.Walk) {
	y := make([]bool, c.NumPairs)
	for j := range y {
		y[j] = true
	}
	return y, c.NewWalk(counts(y), dp.AuditTol)
}

// SPEViolated is the ablation variant of Algorithm 2: instead of the global
// maximum coefficient, it eliminates the largest coefficient among the rows
// that are currently violated. Columns that only appear in satisfied rows
// are never dropped, so it retains at least as many pairs as plain SPE on
// instances where violations are localized.
type SPEViolated struct{}

// Name implements Solver.
func (SPEViolated) Name() string { return "spe-violated" }

// Solve implements Solver.
func (SPEViolated) Solve(c *dp.Constraints) (*Solution, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	y, w := selectAll(c)
	nodes := 0
	for {
		// Find the largest active coefficient within violated rows.
		bestCoef := -1.0
		bestCol := -1
		for k, row := range c.Rows {
			if w.Fits(k) {
				continue
			}
			for _, t := range row.Terms {
				if !y[t.Pair] {
					continue
				}
				if t.Coef > bestCoef || (t.Coef == bestCoef && t.Pair < bestCol) {
					bestCoef, bestCol = t.Coef, t.Pair
				}
			}
		}
		if bestCol < 0 {
			break // no violated rows remain
		}
		y[bestCol] = false
		nodes++
		w.Remove(bestCol)
	}
	return &Solution{Y: y, Objective: Objective(y), Nodes: nodes}, nil
}
