package lp

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestEnginesAgree differentially tests the sparse LU factorization against
// the dense explicit-inverse oracle on random feasible LPs: identical statuses,
// matching objectives, and a full optimality certificate from both.
func TestEnginesAgree(t *testing.T) {
	r := rand.New(rand.NewPCG(2024, 6))
	for trial := 0; trial < 80; trial++ {
		sense := Minimize
		if trial%2 == 0 {
			sense = Maximize
		}
		p := randomFeasibleLP(r, sense, 1+r.IntN(10), 1+r.IntN(10), true)
		sparse, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d sparse: %v", trial, err)
		}
		dense, err := solveWith(p, Options{}, newDenseFactor)
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		if sparse.Status != dense.Status {
			t.Fatalf("trial %d: status sparse %v != dense %v", trial, sparse.Status, dense.Status)
		}
		if sparse.Status != Optimal {
			continue
		}
		if !approx(sparse.Objective, dense.Objective, 1e-5*(1+math.Abs(dense.Objective))) {
			t.Fatalf("trial %d: objective sparse %g != dense %g", trial, sparse.Objective, dense.Objective)
		}
		checkCertificate(t, p, sparse)
		checkCertificate(t, p, dense)
	}
}

// TestEnginesAgreeOnPackingLPs mirrors the paper's constraint structure.
func TestEnginesAgreeOnPackingLPs(t *testing.T) {
	r := rand.New(rand.NewPCG(99, 4))
	for trial := 0; trial < 40; trial++ {
		p := randomPackingLP(r)
		sparse, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dense, err := solveWith(p, Options{}, newDenseFactor)
		if err != nil {
			t.Fatal(err)
		}
		if sparse.Status != Optimal || dense.Status != Optimal {
			t.Fatalf("trial %d: statuses %v/%v", trial, sparse.Status, dense.Status)
		}
		if !approx(sparse.Objective, dense.Objective, 1e-5*(1+dense.Objective)) {
			t.Fatalf("trial %d: λ sparse %g != dense %g", trial, sparse.Objective, dense.Objective)
		}
		checkCertificate(t, p, sparse)
	}
}

// randomPackingLP draws a maximize-Σx packing LP shaped like the Theorem-1
// systems: boxed variables and one shared budget on every ≤ row.
func randomPackingLP(r *rand.Rand) *Problem {
	nVars := 3 + r.IntN(50)
	nRows := 2 + r.IntN(25)
	p := NewProblem(Maximize)
	for j := 0; j < nVars; j++ {
		p.AddVariable(1, 0, float64(1+r.IntN(40)))
	}
	budget := 0.01 + r.Float64()
	for i := 0; i < nRows; i++ {
		row := p.AddConstraint(LE, budget)
		for j := 0; j < nVars; j++ {
			if r.Float64() < 0.25 {
				p.SetCoef(row, j, 0.001+2*r.Float64())
			}
		}
	}
	return p
}

// TestLUFactorMatchesDense exercises the factor primitives directly on a
// random nonsingular sparse basis: FTRAN, BTRAN and pivot rows must agree
// with the dense inverse, including after eta updates.
func TestLUFactorMatchesDense(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 30; trial++ {
		m := 2 + r.IntN(25)
		// Random sparse columns with a guaranteed diagonal, so the matrix is
		// nonsingular with overwhelming probability.
		cols := make([][]nz, m)
		basis := make([]int, m)
		for j := 0; j < m; j++ {
			basis[j] = j
			col := []nz{{row: int32(j), val: 1 + r.Float64()}}
			for i := 0; i < m; i++ {
				if i != j && r.Float64() < 0.15 {
					col = append(col, nz{row: int32(i), val: r.Float64()*2 - 1})
				}
			}
			cols[j] = col
		}
		lu := newLUFactor(m)
		de := newDenseFactor(m)
		if !lu.refactor(basis, cols) || !de.refactor(basis, cols) {
			continue // singular draw; skip
		}
		checkFactorsAgree(t, m, lu, de, cols, r)

		// One eta update: replace a random basis position with a random new
		// column and verify both representations still agree.
		pos := r.IntN(m)
		newCol := []nz{{row: int32(r.IntN(m)), val: 1 + r.Float64()}, {row: int32(pos), val: 1 + r.Float64()}}
		wLU := make([]float64, m)
		lu.ftranCol(newCol, wLU)
		wDe := make([]float64, m)
		de.ftranCol(newCol, wDe)
		if math.Abs(wLU[pos]) < 1e-6 {
			continue // unstable pivot for this random draw
		}
		if !lu.willAccept(pos, wLU) {
			continue
		}
		lu.update(pos, wLU)
		de.update(pos, wDe)
		cols = append(cols, newCol)
		basis[pos] = len(cols) - 1
		checkFactorsAgree(t, m, lu, de, cols, r)
	}
}

func checkFactorsAgree(t *testing.T, m int, lu, de basisFactor, cols [][]nz, r *rand.Rand) {
	t.Helper()
	// FTRAN of a random sparse column.
	col := []nz{{row: int32(r.IntN(m)), val: r.Float64() + 0.5}}
	a := make([]float64, m)
	b := make([]float64, m)
	lu.ftranCol(col, a)
	de.ftranCol(col, b)
	for i := range a {
		if !approx(a[i], b[i], 1e-6*(1+math.Abs(b[i]))) {
			t.Fatalf("ftran mismatch at %d: lu %g dense %g", i, a[i], b[i])
		}
	}
	// BTRAN of a random dense vector.
	x := make([]float64, m)
	for i := range x {
		x[i] = r.Float64()*2 - 1
	}
	y := append([]float64(nil), x...)
	lu.btran(x)
	de.btran(y)
	for i := range x {
		if !approx(x[i], y[i], 1e-6*(1+math.Abs(y[i]))) {
			t.Fatalf("btran mismatch at %d: lu %g dense %g", i, x[i], y[i])
		}
	}
	// A pivot row.
	pr := r.IntN(m)
	lu.pivotRow(pr, x)
	de.pivotRow(pr, y)
	for i := range x {
		if !approx(x[i], y[i], 1e-6*(1+math.Abs(y[i]))) {
			t.Fatalf("pivotRow mismatch at %d: lu %g dense %g", i, x[i], y[i])
		}
	}
}

// buildPackingLP constructs a deterministic packing LP shaped like the
// Theorem-1 systems, parameterized by the shared budget.
func buildPackingLP(r *rand.Rand, nVars, nRows int, budget float64) *Problem {
	p := NewProblem(Maximize)
	for j := 0; j < nVars; j++ {
		p.AddVariable(1, 0, float64(1+r.IntN(30)))
	}
	for i := 0; i < nRows; i++ {
		row := p.AddConstraint(LE, budget)
		for j := 0; j < nVars; j++ {
			if r.Float64() < 0.3 {
				p.SetCoef(row, j, 0.01+r.Float64())
			}
		}
	}
	return p
}

// TestWarmStartSameProblem: re-solving with the final basis must confirm
// optimality almost immediately and reproduce the solution.
func TestWarmStartSameProblem(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	p := buildPackingLP(r, 60, 30, 0.8)
	cold, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal {
		t.Fatalf("cold status %v", cold.Status)
	}
	if cold.Basis == nil {
		t.Fatal("Optimal solution carries no basis snapshot")
	}
	warm, err := Solve(p, Options{WarmStart: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm status %v", warm.Status)
	}
	if !approx(warm.Objective, cold.Objective, 1e-9*(1+math.Abs(cold.Objective))) {
		t.Fatalf("warm objective %g != cold %g", warm.Objective, cold.Objective)
	}
	for j := range warm.X {
		if !approx(warm.X[j], cold.X[j], 1e-7) {
			t.Fatalf("warm X[%d] = %g != cold %g", j, warm.X[j], cold.X[j])
		}
	}
	if warm.Iterations > cold.Iterations/2+2 {
		t.Errorf("warm start did not help: %d iterations vs cold %d", warm.Iterations, cold.Iterations)
	}
	checkCertificate(t, p, warm)
}

// TestWarmStartScaledRHS mimics the ε/δ grid sweeps: the same constraint
// matrix re-solved under a different budget, warm-started from the previous
// basis. The warm solve must stay correct (certificate) and typically
// cheaper than cold.
func TestWarmStartScaledRHS(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 5))
	base := buildPackingLP(r, 80, 40, 0.5)
	first, err := Solve(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != Optimal {
		t.Fatalf("base status %v", first.Status)
	}
	warmBasis := first.Basis
	totalWarm, totalCold := 0, 0
	for _, budget := range []float64{0.55, 0.65, 0.8, 1.1, 1.6} {
		r2 := rand.New(rand.NewPCG(17, 5)) // identical matrix, new rhs
		p := buildPackingLP(r2, 80, 40, budget)
		cold, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Solve(p, Options{WarmStart: warmBasis})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != Optimal || cold.Status != Optimal {
			t.Fatalf("budget %g: statuses warm %v cold %v", budget, warm.Status, cold.Status)
		}
		if !approx(warm.Objective, cold.Objective, 1e-6*(1+cold.Objective)) {
			t.Fatalf("budget %g: warm objective %g != cold %g", budget, warm.Objective, cold.Objective)
		}
		checkCertificate(t, p, warm)
		totalWarm += warm.Iterations
		totalCold += cold.Iterations
		warmBasis = warm.Basis
	}
	if totalWarm > totalCold {
		t.Errorf("warm sweep took %d iterations, cold %d — warm starts should not cost more", totalWarm, totalCold)
	}
}

// TestWarmStartInvalidFallsBack: malformed or mismatched snapshots must
// silently cold-start, never fail or corrupt the solve.
func TestWarmStartInvalidFallsBack(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 21))
	p := buildPackingLP(r, 20, 10, 0.7)
	cold, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []*Basis{
		{}, // empty
		{Vars: make([]int8, 3), Rows: make([]int8, 2)},   // wrong shape
		{Vars: make([]int8, 20), Rows: make([]int8, 10)}, // all nonbasic: count mismatch
		{Vars: func() []int8 {
			v := make([]int8, 20)
			for i := range v {
				v[i] = BasisBasic
			}
			return v
		}(), Rows: make([]int8, 10)}, // too many basics
	}
	for i, b := range bad {
		sol, err := Solve(p, Options{WarmStart: b})
		if err != nil {
			t.Fatalf("bad basis %d: %v", i, err)
		}
		if sol.Status != Optimal || !approx(sol.Objective, cold.Objective, 1e-7*(1+cold.Objective)) {
			t.Fatalf("bad basis %d: status %v obj %g, want optimal %g", i, sol.Status, sol.Objective, cold.Objective)
		}
	}
}

// TestPresolveSingletonRowDualRecovery: a dropped singleton row whose bound
// binds must surface its dual through the postsolve (the certificate checks
// complementary slackness and strong duality on the original problem).
func TestPresolveSingletonRowDualRecovery(t *testing.T) {
	// min 2x + 3y s.t. x >= 3 (singleton), x + y >= 5, y >= 0.
	p := NewProblem(Minimize)
	x := p.AddVariable(2, 0, math.Inf(1))
	y := p.AddVariable(3, 0, math.Inf(1))
	r1 := p.AddConstraint(GE, 3)
	p.SetCoef(r1, x, 1)
	r2 := p.AddConstraint(GE, 5)
	p.SetCoef(r2, x, 1)
	p.SetCoef(r2, y, 1)
	sol := solveOK(t, p)
	if !approx(sol.Objective, 10, testTol) { // x=5, y=0
		t.Fatalf("objective %g, want 10", sol.Objective)
	}
	checkCertificate(t, p, sol)

	// Same with the singleton binding: min x s.t. x >= 3 alone.
	p2 := NewProblem(Minimize)
	x2 := p2.AddVariable(2, 0, math.Inf(1))
	rr := p2.AddConstraint(GE, 3)
	p2.SetCoef(rr, x2, 1)
	s2 := solveOK(t, p2)
	if !approx(s2.Objective, 6, testTol) || !approx(s2.X[0], 3, testTol) {
		t.Fatalf("got obj %g x %g, want 6 at x=3", s2.Objective, s2.X[0])
	}
	if !approx(s2.Dual[0], 2, 1e-6) {
		t.Errorf("singleton row dual %g, want 2 (recovered from the reduced cost)", s2.Dual[0])
	}
	checkCertificate(t, p2, s2)
}

// TestPresolveEqualitySingleton: an EQ singleton fixes the variable and its
// dual carries the full reduced cost.
func TestPresolveEqualitySingleton(t *testing.T) {
	// min 4x + y s.t. 2x = 6, x + y >= 5.
	p := NewProblem(Minimize)
	x := p.AddVariable(4, 0, math.Inf(1))
	y := p.AddVariable(1, 0, math.Inf(1))
	r1 := p.AddConstraint(EQ, 6)
	p.SetCoef(r1, x, 2)
	r2 := p.AddConstraint(GE, 5)
	p.SetCoef(r2, x, 1)
	p.SetCoef(r2, y, 1)
	sol := solveOK(t, p)
	if !approx(sol.X[x], 3, testTol) || !approx(sol.X[y], 2, testTol) {
		t.Fatalf("X = %v, want (3, 2)", sol.X)
	}
	checkCertificate(t, p, sol)
}

// TestPresolveInfeasibleSingletons: contradictory singleton rows are caught
// in presolve with the same Infeasible status the simplex would produce.
func TestPresolveInfeasibleSingletons(t *testing.T) {
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
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

// TestPresolveMatchesNoPresolve: presolve must not change outcomes on
// random LPs (status and objective; vertices may legitimately differ).
func TestPresolveMatchesNoPresolve(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 2))
	for trial := 0; trial < 60; trial++ {
		sense := Minimize
		if trial%2 == 0 {
			sense = Maximize
		}
		p := randomFeasibleLP(r, sense, 1+r.IntN(8), 1+r.IntN(8), true)
		with, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		without, err := Solve(p, Options{NoPresolve: true})
		if err != nil {
			t.Fatal(err)
		}
		if with.Status != without.Status {
			t.Fatalf("trial %d: status with presolve %v != without %v", trial, with.Status, without.Status)
		}
		if with.Status == Optimal {
			if !approx(with.Objective, without.Objective, 1e-5*(1+math.Abs(without.Objective))) {
				t.Fatalf("trial %d: objective %g (presolve) != %g", trial, with.Objective, without.Objective)
			}
			checkCertificate(t, p, with)
		}
	}
}

// TestPresolveEmptyColumnFixed: a variable in no row lands on its
// objective-preferred bound without consuming simplex iterations.
func TestPresolveEmptyColumnFixed(t *testing.T) {
	p := NewProblem(Maximize)
	a := p.AddVariable(5, 0, 7)           // empty column, positive cost → upper
	b := p.AddVariable(-2, -4, 9)         // empty column, negative cost → lower
	c := p.AddVariable(1, 0, math.Inf(1)) // regular
	row := p.AddConstraint(LE, 3)
	p.SetCoef(row, c, 1)
	sol := solveOK(t, p)
	if !approx(sol.X[a], 7, testTol) || !approx(sol.X[b], -4, testTol) || !approx(sol.X[c], 3, testTol) {
		t.Fatalf("X = %v, want (7, -4, 3)", sol.X)
	}
	if !approx(sol.Objective, 5*7+(-2)*(-4)+3, testTol) {
		t.Errorf("objective %g", sol.Objective)
	}
	checkCertificate(t, p, sol)
}

// TestBasisClone guards against aliasing of cached snapshots.
func TestBasisClone(t *testing.T) {
	b := &Basis{Vars: []int8{BasisBasic, BasisAtLower}, Rows: []int8{BasisAtLower}}
	c := b.Clone()
	c.Vars[0] = BasisAtUpper
	c.Rows[0] = BasisBasic
	if b.Vars[0] != BasisBasic || b.Rows[0] != BasisAtLower {
		t.Error("Clone aliases the original")
	}
	if (*Basis)(nil).Clone() != nil {
		t.Error("nil Clone should be nil")
	}
}
