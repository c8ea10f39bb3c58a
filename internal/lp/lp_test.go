package lp

import (
	"math"
	"math/rand/v2"
	"testing"
)

const testTol = 1e-6

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// solveOK solves and requires Optimal status.
func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestMaximizeSingleVarBoundFlip(t *testing.T) {
	p := NewProblem(Maximize)
	p.AddVariable(1, 0, 5)
	sol := solveOK(t, p)
	if !approx(sol.Objective, 5, testTol) || !approx(sol.X[0], 5, testTol) {
		t.Errorf("got obj=%g x=%v, want 5", sol.Objective, sol.X)
	}
}

func TestUnboundedNoRows(t *testing.T) {
	p := NewProblem(Maximize)
	p.AddVariable(1, 0, math.Inf(1))
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestUnboundedWithRow(t *testing.T) {
	// max x + y s.t. x - y <= 1; both unbounded above along x = y.
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, math.Inf(1))
	y := p.AddVariable(1, 0, math.Inf(1))
	r := p.AddConstraint(LE, 1)
	p.SetCoef(r, x, 1)
	p.SetCoef(r, y, -1)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and x >= 2.
	p := NewProblem(Minimize)
	x := p.AddVariable(1, 0, math.Inf(1))
	r1 := p.AddConstraint(LE, 1)
	p.SetCoef(r1, x, 1)
	r2 := p.AddConstraint(GE, 2)
	p.SetCoef(r2, x, 1)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleViaBounds(t *testing.T) {
	// Row forces x+y >= 10 but bounds cap at 4.
	p := NewProblem(Minimize)
	x := p.AddVariable(1, 0, 2)
	y := p.AddVariable(1, 0, 2)
	r := p.AddConstraint(GE, 10)
	p.SetCoef(r, x, 1)
	p.SetCoef(r, y, 1)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestClassicTwoVarMax(t *testing.T) {
	// max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18. Optimum (2,6)=36.
	p := NewProblem(Maximize)
	x := p.AddVariable(3, 0, math.Inf(1))
	y := p.AddVariable(5, 0, math.Inf(1))
	r1 := p.AddConstraint(LE, 4)
	p.SetCoef(r1, x, 1)
	r2 := p.AddConstraint(LE, 12)
	p.SetCoef(r2, y, 2)
	r3 := p.AddConstraint(LE, 18)
	p.SetCoef(r3, x, 3)
	p.SetCoef(r3, y, 2)
	sol := solveOK(t, p)
	if !approx(sol.Objective, 36, testTol) {
		t.Errorf("obj = %g, want 36", sol.Objective)
	}
	if !approx(sol.X[x], 2, testTol) || !approx(sol.X[y], 6, testTol) {
		t.Errorf("x = %v, want (2, 6)", sol.X)
	}
}

func TestMinimizeWithGEAndEQ(t *testing.T) {
	// min 2x + 3y s.t. x + y = 10, x >= 3, y >= 2 (as rows). Optimum x=8,y=2 → 22.
	p := NewProblem(Minimize)
	x := p.AddVariable(2, 0, math.Inf(1))
	y := p.AddVariable(3, 0, math.Inf(1))
	r1 := p.AddConstraint(EQ, 10)
	p.SetCoef(r1, x, 1)
	p.SetCoef(r1, y, 1)
	r2 := p.AddConstraint(GE, 3)
	p.SetCoef(r2, x, 1)
	r3 := p.AddConstraint(GE, 2)
	p.SetCoef(r3, y, 1)
	sol := solveOK(t, p)
	if !approx(sol.Objective, 22, testTol) {
		t.Errorf("obj = %g, want 22", sol.Objective)
	}
	if !approx(sol.X[x], 8, testTol) || !approx(sol.X[y], 2, testTol) {
		t.Errorf("x = %v, want (8, 2)", sol.X)
	}
}

func TestNegativeLowerBound(t *testing.T) {
	// min x s.t. x >= -5 via bound. Optimum -5.
	p := NewProblem(Minimize)
	p.AddVariable(1, -5, 5)
	sol := solveOK(t, p)
	if !approx(sol.Objective, -5, testTol) {
		t.Errorf("obj = %g, want -5", sol.Objective)
	}
}

func TestUpperOnlyBoundVariable(t *testing.T) {
	// Variable with lower = -inf, upper = 3: min x s.t. x >= -7 (row).
	p := NewProblem(Minimize)
	x := p.AddVariable(1, math.Inf(-1), 3)
	r := p.AddConstraint(GE, -7)
	p.SetCoef(r, x, 1)
	sol := solveOK(t, p)
	if !approx(sol.Objective, -7, testTol) {
		t.Errorf("obj = %g, want -7", sol.Objective)
	}
}

func TestFixedVariable(t *testing.T) {
	// x fixed at 2; max x + y, y <= 3.
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 2, 2)
	y := p.AddVariable(1, 0, 3)
	_ = x
	_ = y
	sol := solveOK(t, p)
	if !approx(sol.Objective, 5, testTol) {
		t.Errorf("obj = %g, want 5", sol.Objective)
	}
}

func TestFreeVariableRejected(t *testing.T) {
	p := NewProblem(Minimize)
	p.AddVariable(1, math.Inf(-1), math.Inf(1))
	if _, err := Solve(p, Options{}); err == nil {
		t.Error("free variable accepted")
	}
}

func TestEmptyBoundsRejected(t *testing.T) {
	p := NewProblem(Minimize)
	p.AddVariable(1, 3, 2)
	if _, err := Solve(p, Options{}); err == nil {
		t.Error("empty bound interval accepted")
	}
}

func TestNaNRejected(t *testing.T) {
	p := NewProblem(Minimize)
	p.AddVariable(math.NaN(), 0, 1)
	if _, err := Solve(p, Options{}); err == nil {
		t.Error("NaN objective accepted")
	}
}

func TestEqualityOnlyPhase1(t *testing.T) {
	// x + y = 4, x - y = 2 → x=3, y=1; min x+y = 4 (any objective).
	p := NewProblem(Minimize)
	x := p.AddVariable(1, 0, math.Inf(1))
	y := p.AddVariable(1, 0, math.Inf(1))
	r1 := p.AddConstraint(EQ, 4)
	p.SetCoef(r1, x, 1)
	p.SetCoef(r1, y, 1)
	r2 := p.AddConstraint(EQ, 2)
	p.SetCoef(r2, x, 1)
	p.SetCoef(r2, y, -1)
	sol := solveOK(t, p)
	if !approx(sol.X[x], 3, testTol) || !approx(sol.X[y], 1, testTol) {
		t.Errorf("x = %v, want (3, 1)", sol.X)
	}
}

func TestNegativeRHSLE(t *testing.T) {
	// -x <= -3 means x >= 3; min x → 3. Exercises phase 1 on an LE row.
	p := NewProblem(Minimize)
	x := p.AddVariable(1, 0, math.Inf(1))
	r := p.AddConstraint(LE, -3)
	p.SetCoef(r, x, -1)
	sol := solveOK(t, p)
	if !approx(sol.Objective, 3, testTol) {
		t.Errorf("obj = %g, want 3", sol.Objective)
	}
}

func TestDegenerateLP(t *testing.T) {
	// Multiple constraints active at the optimum.
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, math.Inf(1))
	y := p.AddVariable(1, 0, math.Inf(1))
	for _, rhs := range []float64{4, 4, 4} {
		r := p.AddConstraint(LE, rhs)
		p.SetCoef(r, x, 1)
		p.SetCoef(r, y, 1)
	}
	r := p.AddConstraint(LE, 2)
	p.SetCoef(r, x, 1)
	sol := solveOK(t, p)
	if !approx(sol.Objective, 4, testTol) {
		t.Errorf("obj = %g, want 4", sol.Objective)
	}
}

// rowActivity computes A_i · x for structural variables.
func rowActivity(p *Problem, x []float64) []float64 {
	act := make([]float64, p.NumConstraints())
	for j := 0; j < p.NumVariables(); j++ {
		for _, e := range p.cols[j] {
			act[e.row] += e.val * x[j]
		}
	}
	return act
}

// checkCertificate validates primal feasibility, dual sign conditions,
// complementary slackness and the strong-duality identity
// obj = Σ Dual_i·activity_i + Σ rc_j·x_j for an Optimal solution. This is an
// exact optimality certificate, so passing it on random instances certifies
// the simplex implementation without an external reference solver.
func checkCertificate(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	ftol := 1e-5
	act := rowActivity(p, sol.X)
	// Primal feasibility.
	for j, x := range sol.X {
		if x < p.lower[j]-ftol || x > p.upper[j]+ftol {
			t.Fatalf("var %d = %g violates bounds [%g, %g]", j, x, p.lower[j], p.upper[j])
		}
	}
	for i := range p.ops {
		switch p.ops[i] {
		case LE:
			if act[i] > p.rhs[i]+ftol*(1+math.Abs(p.rhs[i])) {
				t.Fatalf("row %d: activity %g > rhs %g", i, act[i], p.rhs[i])
			}
		case GE:
			if act[i] < p.rhs[i]-ftol*(1+math.Abs(p.rhs[i])) {
				t.Fatalf("row %d: activity %g < rhs %g", i, act[i], p.rhs[i])
			}
		case EQ:
			if !approx(act[i], p.rhs[i], ftol*(1+math.Abs(p.rhs[i]))) {
				t.Fatalf("row %d: activity %g != rhs %g", i, act[i], p.rhs[i])
			}
		}
	}
	// Objective consistency.
	obj := 0.0
	for j, x := range sol.X {
		obj += p.obj[j] * x
	}
	if !approx(obj, sol.Objective, 1e-4*(1+math.Abs(obj))) {
		t.Fatalf("objective mismatch: c·x = %g, reported %g", obj, sol.Objective)
	}
	// Dual sign conditions. External duals: Maximize → LE rows have
	// Dual ≥ 0, GE rows Dual ≤ 0; Minimize is mirrored.
	for i, op := range p.ops {
		d := sol.Dual[i]
		switch {
		case op == LE && p.sense == Maximize && d < -ftol,
			op == GE && p.sense == Maximize && d > ftol,
			op == LE && p.sense == Minimize && d > ftol,
			op == GE && p.sense == Minimize && d < -ftol:
			t.Fatalf("row %d (%v): dual %g has wrong sign for %v problem", i, op, d, p.sense)
		}
	}
	// Complementary slackness on rows.
	for i, op := range p.ops {
		if op == EQ {
			continue
		}
		gap := math.Abs(p.rhs[i] - act[i])
		if gap > ftol*(1+math.Abs(p.rhs[i])) && math.Abs(sol.Dual[i]) > ftol {
			t.Fatalf("row %d: slack %g with nonzero dual %g", i, gap, sol.Dual[i])
		}
	}
	// Reduced-cost conditions: variables strictly inside their bounds must
	// have ~0 reduced cost; at-bound variables obey the sense-dependent sign.
	for j, x := range sol.X {
		rc := sol.ReducedCost[j]
		atLo := !math.IsInf(p.lower[j], -1) && approx(x, p.lower[j], ftol)
		atUp := !math.IsInf(p.upper[j], 1) && approx(x, p.upper[j], ftol)
		if !atLo && !atUp && math.Abs(rc) > 1e-4 {
			t.Fatalf("var %d strictly interior with reduced cost %g", j, rc)
		}
		if p.sense == Maximize {
			if atLo && !atUp && rc > 1e-4 {
				t.Fatalf("max: var %d at lower with rc %g > 0", j, rc)
			}
			if atUp && !atLo && rc < -1e-4 {
				t.Fatalf("max: var %d at upper with rc %g < 0", j, rc)
			}
		} else {
			if atLo && !atUp && rc < -1e-4 {
				t.Fatalf("min: var %d at lower with rc %g < 0", j, rc)
			}
			if atUp && !atLo && rc > 1e-4 {
				t.Fatalf("min: var %d at upper with rc %g > 0", j, rc)
			}
		}
	}
	// Strong duality identity: obj = Σ Dual·activity + Σ rc·x.
	lhs := 0.0
	for i := range p.ops {
		lhs += sol.Dual[i] * act[i]
	}
	for j, x := range sol.X {
		lhs += sol.ReducedCost[j] * x
	}
	if !approx(lhs, sol.Objective, 1e-4*(1+math.Abs(sol.Objective))) {
		t.Fatalf("strong duality identity violated: %g vs %g", lhs, sol.Objective)
	}
}

func TestCertificateOnHandProblems(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable(3, 0, math.Inf(1))
	y := p.AddVariable(5, 0, math.Inf(1))
	r1 := p.AddConstraint(LE, 4)
	p.SetCoef(r1, x, 1)
	r2 := p.AddConstraint(LE, 12)
	p.SetCoef(r2, y, 2)
	r3 := p.AddConstraint(LE, 18)
	p.SetCoef(r3, x, 3)
	p.SetCoef(r3, y, 2)
	sol := solveOK(t, p)
	checkCertificate(t, p, sol)
}

// randomFeasibleLP generates a random LP guaranteed feasible: it picks an
// interior point x0 within bounds and sets each LE rhs to activity+margin,
// GE rhs to activity-margin, EQ rhs to the exact activity.
func randomFeasibleLP(r *rand.Rand, sense Sense, nVars, nRows int, withEq bool) *Problem {
	p := NewProblem(sense)
	x0 := make([]float64, nVars)
	for j := 0; j < nVars; j++ {
		up := math.Inf(1)
		if r.IntN(2) == 0 {
			up = 1 + 10*r.Float64()
		}
		obj := r.Float64()*4 - 2
		p.AddVariable(obj, 0, up)
		hi := 5.0
		if !math.IsInf(up, 1) {
			hi = up
		}
		x0[j] = r.Float64() * hi
	}
	for i := 0; i < nRows; i++ {
		op := LE
		switch r.IntN(4) {
		case 0:
			op = GE
		case 1:
			if withEq {
				op = EQ
			}
		}
		var entries []int
		for j := 0; j < nVars; j++ {
			if r.Float64() < 0.4 {
				entries = append(entries, j)
			}
		}
		if len(entries) == 0 {
			entries = append(entries, r.IntN(nVars))
		}
		act := 0.0
		row := p.AddConstraint(op, 0)
		for _, j := range entries {
			c := r.Float64()*4 - 1 // mostly positive, some negative
			p.SetCoef(row, j, c)
			act += c * x0[j]
		}
		margin := r.Float64() * 3
		switch op {
		case LE:
			p.rhs[row] = act + margin
		case GE:
			p.rhs[row] = act - margin
		case EQ:
			p.rhs[row] = act
		}
	}
	return p
}

func TestRandomFeasibleLPsCertified(t *testing.T) {
	r := rand.New(rand.NewPCG(12345, 999))
	for trial := 0; trial < 120; trial++ {
		sense := Minimize
		if trial%2 == 0 {
			sense = Maximize
		}
		nVars := 1 + r.IntN(8)
		nRows := 1 + r.IntN(8)
		p := randomFeasibleLP(r, sense, nVars, nRows, true)
		sol, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		switch sol.Status {
		case Optimal:
			checkCertificate(t, p, sol)
		case Unbounded:
			// Plausible when objective improves along an unconstrained ray;
			// accepted (feasibility was guaranteed, unboundedness was not
			// excluded by construction).
		default:
			t.Fatalf("trial %d: status %v for a feasible problem", trial, sol.Status)
		}
	}
}

// TestRandomPackingLPs mirrors the structure of the paper's differential
// privacy constraints: non-negative sparse matrix, identical positive rhs,
// upper-bounded variables, maximize Σx.
func TestRandomPackingLPs(t *testing.T) {
	r := rand.New(rand.NewPCG(777, 3))
	for trial := 0; trial < 60; trial++ {
		nVars := 3 + r.IntN(40)
		nRows := 2 + r.IntN(20)
		p := NewProblem(Maximize)
		for j := 0; j < nVars; j++ {
			p.AddVariable(1, 0, float64(1+r.IntN(50)))
		}
		budget := 0.01 + r.Float64()
		for i := 0; i < nRows; i++ {
			row := p.AddConstraint(LE, budget)
			for j := 0; j < nVars; j++ {
				if r.Float64() < 0.3 {
					p.SetCoef(row, j, 0.001+2*r.Float64())
				}
			}
		}
		sol := solveOK(t, p)
		checkCertificate(t, p, sol)
		if sol.Objective < -testTol {
			t.Fatalf("packing LP objective %g < 0", sol.Objective)
		}
	}
}

// Packing LPs scale linearly in the budget when no upper bound binds.
func TestPackingScalesWithBudget(t *testing.T) {
	build := func(budget float64) *Problem {
		p := NewProblem(Maximize)
		for j := 0; j < 5; j++ {
			p.AddVariable(1, 0, math.Inf(1))
		}
		coefs := [][]float64{
			{0.5, 0.2, 0, 0.9, 0},
			{0, 0.4, 0.7, 0, 0.3},
			{0.2, 0, 0.1, 0.5, 0.8},
		}
		for _, row := range coefs {
			ri := p.AddConstraint(LE, budget)
			for j, c := range row {
				p.SetCoef(ri, j, c)
			}
		}
		return p
	}
	s1 := solveOK(t, build(1))
	s3 := solveOK(t, build(3))
	if !approx(s3.Objective, 3*s1.Objective, 1e-4*(1+s1.Objective)) {
		t.Errorf("budget scaling violated: λ(1)=%g λ(3)=%g", s1.Objective, s3.Objective)
	}
}

// degenerateLP builds a random bounded maximization whose starting vertex,
// the origin, is highly degenerate: three rows in four have right-hand side
// 0 and mixed-sign integer coefficients, so early pivots take zero steps and
// the ratio test ties across rows.
func degenerateLP(r *rand.Rand, nVars, nRows int) *Problem {
	p := NewProblem(Maximize)
	for j := 0; j < nVars; j++ {
		p.AddVariable(r.Float64()*2-0.5, 0, float64(1+r.IntN(10)))
	}
	for i := 0; i < nRows; i++ {
		rhs := 0.0
		if i%4 == 3 {
			rhs = 1 + 5*r.Float64()
		}
		row := p.AddConstraint(LE, rhs)
		for j := 0; j < nVars; j++ {
			if r.Float64() < 0.5 {
				p.SetCoef(row, j, float64(r.IntN(5)-2))
			}
		}
	}
	return p
}

// TestBlandRuleMatchesDevex starts the solver in the state a degenerate
// stall puts it in — Bland's anti-cycling rule on — and checks that it
// certifies the same optimum as Devex pricing. Bland's rule stays on through
// the zero-step pivots at the origin, so both its entering rule and its
// ratio-test tie-break run.
func TestBlandRuleMatchesDevex(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 8))
	for trial := 0; trial < 40; trial++ {
		p := degenerateLP(r, 2+r.IntN(12), 2+r.IntN(12))
		devex, err := Solve(p, Options{NoPresolve: true})
		if err != nil {
			t.Fatal(err)
		}
		s := newSolver(p, Options{}, newLUFactor)
		s.coldStart()
		s.blandOn = true
		bland, err := s.solve()
		if err != nil {
			t.Fatal(err)
		}
		if devex.Status != Optimal || bland.Status != Optimal {
			t.Fatalf("trial %d: status devex %v, bland %v", trial, devex.Status, bland.Status)
		}
		if !approx(bland.Objective, devex.Objective, 1e-7*(1+math.Abs(devex.Objective))) {
			t.Fatalf("trial %d: objective bland %g != devex %g", trial, bland.Objective, devex.Objective)
		}
		checkCertificate(t, p, bland)
	}
}

func TestIterLimit(t *testing.T) {
	p := NewProblem(Maximize)
	for j := 0; j < 10; j++ {
		p.AddVariable(1, 0, math.Inf(1))
	}
	for i := 0; i < 10; i++ {
		row := p.AddConstraint(LE, 1)
		for j := 0; j < 10; j++ {
			p.SetCoef(row, j, float64(1+(i+j)%3))
		}
	}
	sol, err := Solve(p, Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit && sol.Status != Optimal {
		t.Errorf("status = %v, want iteration limit (or optimal for trivial case)", sol.Status)
	}
}

func TestLargeSparseRefactorization(t *testing.T) {
	// Exercise the periodic refactorization path with a problem large enough
	// to need hundreds of pivots.
	r := rand.New(rand.NewPCG(42, 42))
	nVars, nRows := 300, 120
	p := NewProblem(Maximize)
	for j := 0; j < nVars; j++ {
		p.AddVariable(1+r.Float64(), 0, float64(5+r.IntN(40)))
	}
	for i := 0; i < nRows; i++ {
		row := p.AddConstraint(LE, 50+50*r.Float64())
		for j := 0; j < nVars; j++ {
			if r.Float64() < 0.08 {
				p.SetCoef(row, j, 0.1+r.Float64())
			}
		}
	}
	sol := solveOK(t, p)
	checkCertificate(t, p, sol)
}

func TestOpAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("Op.String wrong")
	}
	if Op(9).String() == "" || Status(9).String() == "" {
		t.Error("out-of-range String empty")
	}
	for _, s := range []Status{Optimal, Infeasible, Unbounded, IterLimit} {
		if s.String() == "" {
			t.Errorf("Status(%d).String empty", s)
		}
	}
}
