package lp

import (
	"math"
	"math/rand/v2"
	"testing"
)

// pivotRowChecker is the sparse LU factor with every pivotRow call checked
// bit for bit against btran(e_r), the dense-pass definition it shortcuts.
type pivotRowChecker struct {
	*luFactor
	tb testing.TB
	// refactors counts mid-solve refactorizations; afterRefactor the pivot
	// rows taken through a non-empty eta file after one.
	refactors, afterRefactor int
}

func (c *pivotRowChecker) refactor(basis []int, cols [][]nz) bool {
	ok := c.luFactor.refactor(basis, cols)
	if ok {
		c.refactors++
	}
	return ok
}

func (c *pivotRowChecker) pivotRow(r int, rho []float64) {
	c.luFactor.pivotRow(r, rho)
	checkPivotRow(c.tb, c.luFactor, r, rho)
	if c.refactors > 0 && c.updates() > 0 {
		c.afterRefactor++
	}
}

// checkPivotRow fails tb unless rho has the bits of btran(e_r).
func checkPivotRow(tb testing.TB, f *luFactor, r int, rho []float64) {
	tb.Helper()
	want := make([]float64, f.m)
	want[r] = 1
	f.btran(want)
	for i := range want {
		if math.Float64bits(rho[i]) != math.Float64bits(want[i]) {
			tb.Fatalf("pivotRow(%d)[%d] = %v (%#x), btran(e_%d) gives %v (%#x); %d etas",
				r, i, rho[i], math.Float64bits(rho[i]), r, want[i], math.Float64bits(want[i]), f.updates())
		}
	}
}

// solveCheckingPivotRows solves p on the sparse LU factor, checking every
// pivot row, and returns the solution with the last solve's checker.
func solveCheckingPivotRows(t *testing.T, p *Problem) (*Solution, *pivotRowChecker) {
	t.Helper()
	var c *pivotRowChecker
	sol, err := solveWith(p, Options{}, func(m int) basisFactor {
		c = &pivotRowChecker{luFactor: newLUFactor(m).(*luFactor), tb: t}
		return c
	})
	if err != nil {
		t.Fatal(err)
	}
	return sol, c
}

// TestPivotRowMatchesBtran checks pivotRow's sparse eta pass against
// btran(e_r) by bits at every pivot of whole solves: random LPs, packing
// LPs and the O-UMP LP of the small profile, whose many pivots span several
// refactorizations.
func TestPivotRowMatchesBtran(t *testing.T) {
	r := rand.New(rand.NewPCG(25, 1))
	for trial := 0; trial < 40; trial++ {
		sense := Minimize
		if trial%2 == 0 {
			sense = Maximize
		}
		solveCheckingPivotRows(t, randomFeasibleLP(r, sense, 1+r.IntN(10), 1+r.IntN(10), true))
		solveCheckingPivotRows(t, randomPackingLP(r))
	}

	sol, c := solveCheckingPivotRows(t, smallOUMPProblem(t))
	if sol.Status != Optimal || sol.Iterations != 881 || sol.Stats.Refactorizations != 7 {
		t.Fatalf("small O-UMP: %v after %d iterations and %d refactorizations, want optimal after 881 and 7",
			sol.Status, sol.Iterations, sol.Stats.Refactorizations)
	}
	if c.afterRefactor == 0 {
		t.Fatal("small O-UMP: no pivot row crossed etas on a refactorized basis")
	}
}

// FuzzPivotRow drives one sparse LU factor through a random pivot sequence
// on a random sparse basis, checking the pivot row of every position
// against btran(e_r) by bits before each pivot, across eta-file-full
// refactorizations. Entries are small integers and most entering columns
// are ±1 pairs, so B⁻¹ stays integral for long runs and pivot-row entries
// cancel to exact zeros and come back — the case in which a position could
// be listed twice.
func FuzzPivotRow(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint16(60))
	f.Add(uint64(2), uint8(12), uint16(200))
	f.Add(uint64(3), uint8(38), uint16(399))
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, steps uint16) {
		m := 2 + int(size)%40
		r := rand.New(rand.NewPCG(seed, uint64(size)))
		small := func() float64 { return float64(1+r.IntN(2)) * float64(1-2*r.IntN(2)) }
		// A unit lower-triangular start: nonsingular with an integral inverse.
		cols := make([][]nz, m)
		basis := make([]int, m)
		for j := range cols {
			basis[j] = j
			cols[j] = []nz{{row: int32(j), val: 1}}
			for i := j + 1; i < m; i++ {
				if r.IntN(4) == 0 {
					cols[j] = append(cols[j], nz{row: int32(i), val: small()})
				}
			}
		}
		lu := newLUFactor(m).(*luFactor)
		if !lu.refactor(basis, cols) {
			t.Fatal("unit triangular basis reported singular")
		}
		rho := make([]float64, m)
		w := make([]float64, m)
		for step := 0; step < int(steps)%400; step++ {
			for i := 0; i < m; i++ {
				lu.pivotRow(i, rho)
				checkPivotRow(t, lu, i, rho)
			}
			var col []nz
			if a, b := r.IntN(m), r.IntN(m); a != b && r.IntN(4) != 0 {
				col = []nz{{row: int32(a), val: 1}, {row: int32(b), val: float64(1 - 2*r.IntN(2))}}
			} else {
				for n := 1 + r.IntN(3); n > 0; n-- {
					col = append(col, nz{row: int32(r.IntN(m)), val: small()})
				}
			}
			lu.ftranCol(col, w)
			var cand []int
			for i, v := range w {
				if math.Abs(v) >= 1e-6 {
					cand = append(cand, i)
				}
			}
			if len(cand) == 0 {
				continue
			}
			pos := cand[r.IntN(len(cand))]
			if !lu.willAccept(pos, w) {
				if !lu.refactor(basis, cols) {
					return
				}
				continue
			}
			lu.update(pos, w)
			cols = append(cols, col)
			basis[pos] = len(cols) - 1
		}
	})
}
