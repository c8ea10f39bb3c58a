package bip

import (
	"fmt"
	"math"
	"sort"

	"dpslog/internal/dp"
	"dpslog/internal/lp"
	"dpslog/internal/rng"
)

// packingLP builds an LP over c with one [0, 1] variable per pair, pair j
// weighted obj(j) in the objective and narrowed by fixed[j] ∈ {-1 free,
// 0, 1} when fixed is non-nil, and one row per user log with right-hand
// side Budget.
func packingLP(c *dp.Constraints, sense lp.Sense, obj func(j int) float64, fixed []int8) *lp.Problem {
	prob := lp.NewProblem(sense)
	for j := 0; j < c.NumPairs; j++ {
		lo, hi := 0.0, 1.0
		if fixed != nil {
			switch fixed[j] {
			case 0:
				hi = 0
			case 1:
				lo = 1
			}
		}
		prob.AddVariable(obj(j), lo, hi)
	}
	for _, row := range c.Rows {
		r := prob.AddConstraint(lp.LE, c.Budget)
		for _, t := range row.Terms {
			prob.SetCoef(r, t.Pair, t.Coef)
		}
	}
	return prob
}

// relaxation is the LP relaxation of the BIP under the fixings: maximize
// Σ y_j.
func relaxation(c *dp.Constraints, fixed []int8) *lp.Problem {
	return packingLP(c, lp.Maximize, func(int) float64 { return 1 }, fixed)
}

// greedyFill adds unselected columns to y in the given order while every row
// stays within the budget. Columns already true are skipped.
func greedyFill(c *dp.Constraints, y []bool, order []int) {
	w := c.NewWalk(counts(y), dp.AuditTol)
	for _, j := range order {
		if !y[j] && w.Add(j) {
			y[j] = true
		}
	}
}

// ascendingSensitivity orders columns by their largest coefficient (the
// pair's worst single-user domination), least sensitive first. A column
// absent from every row has maximum 0 and is always selectable.
func ascendingSensitivity(c *dp.Constraints) []int {
	maxes := make([]float64, c.NumPairs)
	for _, row := range c.Rows {
		for _, t := range row.Terms {
			maxes[t.Pair] = math.Max(maxes[t.Pair], t.Coef)
		}
	}
	order := make([]int, c.NumPairs)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return maxes[order[a]] < maxes[order[b]] })
	return order
}

// roundDown converts an LP point into a feasible selection by keeping only
// coordinates at (numerically) one. Because the matrix is non-negative and
// the LP point feasible, the result is always feasible.
func roundDown(c *dp.Constraints, x []float64) []bool {
	y := make([]bool, c.NumPairs)
	for j, v := range x {
		if v >= 1-1e-7 {
			y[j] = true
		}
	}
	return y
}

// Greedy is the constraint-aware greedy insertion heuristic (the stand-in
// for scip's primal heuristics in the Table 7 comparison): columns are
// considered least-sensitive first and added while every user-log budget
// still holds.
type Greedy struct{}

// Name implements Solver.
func (Greedy) Name() string { return "greedy" }

// Solve implements Solver.
func (Greedy) Solve(c *dp.Constraints) (*Solution, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	y := make([]bool, c.NumPairs)
	greedyFill(c, y, ascendingSensitivity(c))
	return &Solution{Y: y, Objective: Objective(y)}, nil
}

// Rounding solves the exact LP relaxation once and rounds it greedily: take
// every variable at 1, then add the remaining columns in descending
// fractional value. This mirrors how an exact LP solver (qsopt_ex) is
// typically used for BIPs without branching.
type Rounding struct{}

// Name implements Solver.
func (Rounding) Name() string { return "rounding" }

// Solve implements Solver.
func (Rounding) Solve(c *dp.Constraints) (*Solution, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sol, err := lp.Solve(relaxation(c, nil), lp.Options{})
	if err != nil {
		return nil, fmt.Errorf("bip/rounding: relaxation: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("bip/rounding: relaxation status %v", sol.Status)
	}
	y := roundDown(c, sol.X)
	order := make([]int, c.NumPairs)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return sol.X[order[a]] > sol.X[order[b]] })
	greedyFill(c, y, order)
	return &Solution{Y: y, Objective: Objective(y), Nodes: sol.Iterations}, nil
}

// FeasPump is the feasibility pump heuristic (the NEOS feaspump stand-in):
// alternate between rounding the current LP point and re-solving an LP that
// minimizes the L1 distance to the rounded point, perturbing on cycles, then
// polish the first feasible point greedily.
type FeasPump struct {
	// MaxIter bounds pump rounds; 0 means 25.
	MaxIter int
	// Seed drives the cycle-breaking perturbation; the zero value is a fixed
	// default so runs stay reproducible.
	Seed uint64
}

// Name implements Solver.
func (FeasPump) Name() string { return "feaspump" }

// Solve implements Solver.
func (f FeasPump) Solve(c *dp.Constraints) (*Solution, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	maxIter := f.MaxIter
	if maxIter <= 0 {
		maxIter = 25
	}
	seed := f.Seed
	if seed == 0 {
		seed = 0xfeedbeef
	}
	g := rng.New(seed)

	sol, err := lp.Solve(relaxation(c, nil), lp.Options{})
	if err != nil {
		return nil, fmt.Errorf("bip/feaspump: relaxation: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("bip/feaspump: relaxation status %v", sol.Status)
	}
	x := sol.X
	nodes := sol.Iterations
	round := func(x []float64) []bool {
		y := make([]bool, len(x))
		for j, v := range x {
			y[j] = v >= 0.5
		}
		return y
	}
	hash := func(y []bool) uint64 {
		h := uint64(1469598103934665603)
		for _, v := range y {
			h *= 1099511628211
			if v {
				h ^= 1
			} else {
				h ^= 2
			}
		}
		return h
	}
	seen := map[uint64]bool{}
	yHat := round(x)
	best := roundDown(c, x) // guaranteed-feasible fallback
	for iter := 0; iter < maxIter; iter++ {
		if feasible(c, yHat) {
			best = yHat
			break
		}
		h := hash(yHat)
		if seen[h] {
			// Cycle: flip a random tenth of the coordinates.
			flips := 1 + len(yHat)/10
			for f := 0; f < flips; f++ {
				j := g.IntN(len(yHat))
				yHat[j] = !yHat[j]
			}
			h = hash(yHat)
		}
		seen[h] = true
		// Distance LP: minimize Σ_{ŷ=0} y_j − Σ_{ŷ=1} y_j (equals L1 distance
		// up to a constant).
		dist := packingLP(c, lp.Minimize, func(j int) float64 {
			if yHat[j] {
				return -1
			}
			return 1
		}, nil)
		dsol, err := lp.Solve(dist, lp.Options{})
		if err != nil {
			return nil, fmt.Errorf("bip/feaspump: distance LP: %w", err)
		}
		if dsol.Status != lp.Optimal {
			break
		}
		nodes += dsol.Iterations
		x = dsol.X
		yHat = round(x)
		if feasible(c, yHat) {
			best = yHat
			break
		}
		// Keep the best feasible round-down seen along the way.
		if rd := roundDown(c, x); Objective(rd) > Objective(best) {
			best = rd
		}
	}
	greedyFill(c, best, ascendingSensitivity(c))
	return &Solution{Y: best, Objective: Objective(best), Nodes: nodes}, nil
}

// BranchBound is an LP-based branch & bound (the Matlab bintprog algorithm):
// depth-first search branching on the most fractional relaxation variable,
// with round-down primal heuristics at every node and a node budget for the
// large instances of the Table 7 comparison. Within the budget it proves
// optimality; beyond it, it reports the best incumbent.
type BranchBound struct {
	// NodeLimit bounds explored nodes; 0 means 400.
	NodeLimit int
}

// Name implements Solver.
func (BranchBound) Name() string { return "branchbound" }

// Solve implements Solver.
func (bb BranchBound) Solve(c *dp.Constraints) (*Solution, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	nodeLimit := bb.NodeLimit
	if nodeLimit <= 0 {
		nodeLimit = 400
	}
	// The fill order is the same at every node: compute it once. The
	// incumbent starts as the greedy heuristic's selection.
	order := ascendingSensitivity(c)
	incumbent := make([]bool, c.NumPairs)
	greedyFill(c, incumbent, order)
	incObj := Objective(incumbent)

	type node struct {
		fixed []int8
	}
	root := make([]int8, c.NumPairs)
	for j := range root {
		root[j] = -1
	}
	stack := []node{{fixed: root}}
	nodes := 0
	exhausted := true
	for len(stack) > 0 {
		if nodes >= nodeLimit {
			exhausted = false
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		sol, err := lp.Solve(relaxation(c, nd.fixed), lp.Options{})
		if err != nil {
			return nil, fmt.Errorf("bip/branchbound: node LP: %w", err)
		}
		if sol.Status == lp.Infeasible {
			continue
		}
		if sol.Status != lp.Optimal {
			continue
		}
		bound := int(math.Floor(sol.Objective + 1e-6))
		if bound <= incObj {
			continue
		}
		// Primal heuristic: round down, honoring fixed-to-one variables
		// (they are at 1 in any feasible LP point of this node).
		cand := roundDown(c, sol.X)
		greedyFill(c, cand, order)
		if o := Objective(cand); o > incObj {
			incObj, incumbent = o, cand
		}
		// Find the most fractional variable.
		branch := -1
		bestFrac := 1e-6
		for j, v := range sol.X {
			if nd.fixed[j] != -1 {
				continue
			}
			frac := math.Min(v, 1-v)
			if frac > bestFrac {
				bestFrac, branch = frac, j
			}
		}
		if branch < 0 {
			// Integral relaxation: it is feasible and integral, hence a
			// candidate solution.
			cand := roundDown(c, sol.X)
			if o := Objective(cand); o > incObj && feasible(c, cand) {
				incObj, incumbent = o, cand
			}
			continue
		}
		f0 := append([]int8(nil), nd.fixed...)
		f0[branch] = 0
		f1 := append([]int8(nil), nd.fixed...)
		f1[branch] = 1
		// Explore the fix-to-one child first (depth-first: push last).
		stack = append(stack, node{fixed: f0}, node{fixed: f1})
	}
	return &Solution{Y: incumbent, Objective: incObj, Optimal: exhausted, Nodes: nodes}, nil
}
