package lp

import "math"

// This file implements the light presolve in front of the simplex engine:
//
//   - singleton rows become variable bounds (and are dropped),
//   - rows that can never bind under the (tightened) bounds are dropped,
//   - empty rows are dropped or declare infeasibility outright,
//   - empty columns — variables appearing in no kept row — are fixed at
//     their objective-preferred finite bound,
//
// together with the exact postsolve that maps the reduced solution back to
// the original problem: X is index-identical (variables are never removed,
// only bound-tightened), dropped rows get recovered duals (zero for
// redundant rows; the variable's reduced cost transferred through the
// singleton coefficient when its tightened bound binds), so the optimality
// certificate — complementary slackness and strong duality — holds on the
// original problem.

// presolveInfo records a reduction and how to undo it.
type presolveInfo struct {
	reduced    *Problem
	infeasible bool

	origRows int
	rowMap   []int // original row -> reduced row, or -1
	keptRows []int // reduced row -> original row

	// Bound-tightening provenance: the original singleton row (and its
	// coefficient) that produced the variable's reduced lower/upper bound,
	// or -1.
	tightLo, tightUp         []int
	tightLoCoef, tightUpCoef []float64
}

// presolveProblem reduces p. It never mutates p.
func presolveProblem(p *Problem) *presolveInfo {
	n := len(p.obj)
	m := len(p.ops)
	ps := &presolveInfo{
		origRows:    m,
		rowMap:      make([]int, m),
		tightLo:     make([]int, n),
		tightUp:     make([]int, n),
		tightLoCoef: make([]float64, n),
		tightUpCoef: make([]float64, n),
	}
	for j := range ps.tightLo {
		ps.tightLo[j] = -1
		ps.tightUp[j] = -1
	}

	lo := append([]float64(nil), p.lower...)
	up := append([]float64(nil), p.upper...)

	// Row views: entry counts and the single entry of singleton rows.
	cnt := make([]int, m)
	singCol := make([]int, m)
	singVal := make([]float64, m)
	for j := 0; j < n; j++ {
		for _, e := range p.cols[j] {
			r := int(e.row)
			cnt[r]++
			singCol[r], singVal[r] = j, e.val
		}
	}

	dropped := make([]bool, m)

	// Singleton-row bound tightening. The row is fully captured by the
	// variable bound, so it is dropped; postsolve recovers its dual from the
	// variable's reduced cost when the tightened bound binds.
	for i := 0; i < m; i++ {
		if cnt[i] != 1 {
			continue
		}
		j, a := singCol[i], singVal[i]
		v := p.rhs[i] / a
		op := p.ops[i]
		// Normalize: LE with a<0 is a lower bound, etc.
		tightensUpper := (op == LE && a > 0) || (op == GE && a < 0)
		switch {
		case op == EQ:
			tol := float64(1e-9 * (1 + math.Abs(v)))
			if v < lo[j]-tol || v > up[j]+tol {
				ps.infeasible = true
				return ps
			}
			lo[j], up[j] = v, v
			ps.tightLo[j], ps.tightLoCoef[j] = i, a
			ps.tightUp[j], ps.tightUpCoef[j] = i, a
		case tightensUpper:
			if v < up[j] {
				up[j] = v
				ps.tightUp[j], ps.tightUpCoef[j] = i, a
			}
		default:
			if v > lo[j] {
				lo[j] = v
				ps.tightLo[j], ps.tightLoCoef[j] = i, a
			}
		}
		if lo[j] > up[j] {
			if lo[j]-up[j] > 1e-9*(1+math.Abs(up[j])) {
				ps.infeasible = true
				return ps
			}
			lo[j] = up[j]
		}
		dropped[i] = true
	}

	// Activity bounds under the tightened box, for redundancy and
	// infeasibility detection on the remaining rows.
	minAct := make([]float64, m)
	maxAct := make([]float64, m)
	for j := 0; j < n; j++ {
		for _, e := range p.cols[j] {
			r := int(e.row)
			if dropped[r] {
				continue
			}
			if e.val > 0 {
				minAct[r] += float64(e.val * lo[j])
				maxAct[r] += float64(e.val * up[j])
			} else {
				minAct[r] += float64(e.val * up[j])
				maxAct[r] += float64(e.val * lo[j])
			}
		}
	}
	for i := 0; i < m; i++ {
		if dropped[i] {
			continue
		}
		rhs := p.rhs[i]
		tol := float64(1e-9 * (1 + math.Abs(rhs)))
		switch p.ops[i] {
		case LE:
			if minAct[i] > rhs+tol {
				ps.infeasible = true
				return ps
			}
			if maxAct[i] <= rhs {
				dropped[i] = true // can never bind: always-slack row
			}
		case GE:
			if maxAct[i] < rhs-tol {
				ps.infeasible = true
				return ps
			}
			if minAct[i] >= rhs {
				dropped[i] = true
			}
		case EQ:
			if minAct[i] > rhs+tol || maxAct[i] < rhs-tol {
				ps.infeasible = true
				return ps
			}
			if minAct[i] == maxAct[i] && math.Abs(minAct[i]-rhs) <= tol {
				dropped[i] = true // all variables fixed and consistent
			}
		}
	}

	// Row maps and the reduced row set.
	for i := 0; i < m; i++ {
		if dropped[i] {
			ps.rowMap[i] = -1
			continue
		}
		ps.rowMap[i] = len(ps.keptRows)
		ps.keptRows = append(ps.keptRows, i)
	}

	// Reduced columns: entries of kept rows only. Variables whose remaining
	// column is empty are fixed at the objective-preferred finite bound
	// (left free only when that bound is infinite — the solver then proves
	// unboundedness or ends at the finite side itself).
	red := &Problem{
		sense: p.sense,
		obj:   p.obj,
		lower: lo,
		upper: up,
		cols:  make([][]nz, n),
		ops:   make([]Op, len(ps.keptRows)),
		rhs:   make([]float64, len(ps.keptRows)),
	}
	for k, i := range ps.keptRows {
		red.ops[k] = p.ops[i]
		red.rhs[k] = p.rhs[i]
	}
	for j := 0; j < n; j++ {
		var col []nz
		for _, e := range p.cols[j] {
			if rm := ps.rowMap[e.row]; rm >= 0 {
				col = append(col, nz{row: int32(rm), val: e.val})
			}
		}
		red.cols[j] = col
		if len(col) > 0 || lo[j] == up[j] {
			continue
		}
		// Objective-preferred bound in the original sense.
		c := p.obj[j]
		if p.sense == Maximize {
			c = -c
		}
		switch {
		case c > 0: // minimize pushes to the lower bound
			if !math.IsInf(lo[j], -1) {
				up[j] = lo[j]
			}
		case c < 0:
			if !math.IsInf(up[j], 1) {
				lo[j] = up[j]
			}
		default:
			if !math.IsInf(lo[j], -1) {
				up[j] = lo[j]
			} else if !math.IsInf(up[j], 1) {
				lo[j] = up[j]
			}
		}
	}
	ps.reduced = red
	return ps
}

// mapWarm translates a basis snapshot of the original problem into the
// reduced row space. Variables map one-to-one; dropped rows simply vanish
// (their logicals were recorded basic by postsolve, so the count works out
// whenever the reduction is the same — any mismatch just fails the warm
// start downstream).
func (ps *presolveInfo) mapWarm(b *Basis) *Basis {
	if b == nil || len(b.Rows) != ps.origRows {
		return nil
	}
	red := &Basis{Vars: b.Vars, Rows: make([]int8, len(ps.keptRows))}
	for k, i := range ps.keptRows {
		red.Rows[k] = b.Rows[i]
	}
	return red
}

// dualSignOK reports whether d is a validly signed multiplier for a row of
// the given operator in the given sense (external convention: Maximize has
// LE duals ≥ 0 and GE duals ≤ 0; Minimize is mirrored; EQ is free).
func dualSignOK(op Op, sense Sense, d float64) bool {
	const tol = 1e-12
	switch op {
	case EQ:
		return true
	case LE:
		if sense == Maximize {
			return d >= -tol
		}
		return d <= tol
	default: // GE
		if sense == Maximize {
			return d <= tol
		}
		return d >= tol
	}
}

// postsolve maps the reduced solution back onto the original problem.
func (ps *presolveInfo) postsolve(p *Problem, sol *Solution) *Solution {
	out := &Solution{
		Status:      sol.Status,
		Objective:   sol.Objective,
		X:           sol.X,
		ReducedCost: sol.ReducedCost,
		Iterations:  sol.Iterations,
		Dual:        make([]float64, ps.origRows),
	}
	for k, i := range ps.keptRows {
		out.Dual[i] = sol.Dual[k]
	}
	if sol.Status == Infeasible {
		return out
	}

	// Recover duals of dropped singleton rows: when the bound the row
	// introduced binds, the variable's reduced cost is really the row's
	// multiplier scaled by the coefficient.
	for j := range out.X {
		rc := out.ReducedCost[j]
		if math.Abs(rc) <= 1e-9 {
			continue
		}
		lo, up := ps.reduced.lower[j], ps.reduced.upper[j]
		x := out.X[j]
		type cand struct {
			row  int
			coef float64
		}
		var cands []cand
		if ps.tightUp[j] >= 0 && !math.IsInf(up, 1) && math.Abs(x-up) <= 1e-9*(1+math.Abs(up)) && up < p.upper[j] {
			cands = append(cands, cand{ps.tightUp[j], ps.tightUpCoef[j]})
		}
		if ps.tightLo[j] >= 0 && !math.IsInf(lo, -1) && math.Abs(x-lo) <= 1e-9*(1+math.Abs(lo)) && lo > p.lower[j] {
			c := cand{ps.tightLo[j], ps.tightLoCoef[j]}
			if ps.tightLo[j] != ps.tightUp[j] || len(cands) == 0 {
				cands = append(cands, c)
			}
		}
		for _, c := range cands {
			d := rc / c.coef
			if dualSignOK(p.ops[c.row], p.sense, d) {
				out.Dual[c.row] = d
				out.ReducedCost[j] = 0
				break
			}
		}
	}

	// Basis snapshot in original row space: dropped rows keep their logical
	// basic, so re-applying the same reduction round-trips and a different
	// reduction still yields a structurally nonsingular candidate.
	if sol.Basis != nil {
		rows := make([]int8, ps.origRows)
		for i := range rows {
			rows[i] = BasisBasic
		}
		for k, i := range ps.keptRows {
			rows[i] = sol.Basis.Rows[k]
		}
		out.Basis = &Basis{Vars: sol.Basis.Vars, Rows: rows}
	}
	return out
}

// infeasibleSolution synthesizes the Infeasible result presolve proves
// without running the simplex.
func infeasibleSolution(p *Problem) *Solution {
	return &Solution{
		Status:      Infeasible,
		X:           make([]float64, len(p.obj)),
		Dual:        make([]float64, len(p.ops)),
		ReducedCost: make([]float64, len(p.obj)),
	}
}
