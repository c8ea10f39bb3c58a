package lp

import (
	"math"
)

// Variable statuses for nonbasic variables. The values deliberately match
// the exported Basis* constants so basis snapshots copy without translation.
const (
	atLower int8 = iota
	atUpper
	basic
)

// solver holds the working state of a bounded-variable revised simplex run.
// The internal orientation is always minimization; Maximize problems negate
// costs on the way in and objective/duals/reduced costs on the way out.
//
// Pricing uses the Devex rule with incrementally maintained reduced costs:
// each pivot updates d and the Devex reference weights in one O(nnz) pass
// over the pivot row, and full dual recomputation happens only on periodic
// refreshes. The basis inverse lives behind the basisFactor interface: the
// sparse LU factorization pays O(nnz of the factors) per FTRAN/BTRAN and
// appends a product-form eta per pivot, with periodic and
// stability-triggered refactorization.
type solver struct {
	m, n    int // rows, total columns (structural + slack + artificial)
	nStruct int // structural column count
	nSlack  int // slack/surplus column count

	cols  [][]nz    // column entries
	cost  []float64 // phase-specific costs
	cost2 []float64 // phase-2 costs (internal minimize orientation)
	lower []float64
	upper []float64
	b     []float64
	ops   []Op

	slackOf []int // row -> slack/surplus column, or -1 (EQ rows)

	basis  []int   // basis position -> column
	pos    []int32 // column -> basis position, or -1
	status []int8  // column -> atLower/atUpper/basic
	xB     []float64
	factor basisFactor

	newFactor func(m int) basisFactor

	// scratch
	y     []float64 // duals c_B·B^{-1}
	w     []float64 // FTRAN result B^{-1}·A_j
	rho   []float64 // pivot row of B^{-1} (computed before the basis update)
	d     []float64 // reduced costs, maintained incrementally
	devex []float64 // Devex reference weights

	tol  float64
	ztol float64 // pivot magnitude threshold

	maxIter int
	blandOn bool // Bland's rule, switched on by a degenerate stall

	nArtificial int
	iterations  int
	refactEvery int
	refactors   int // factorizations performed, including the initial one
	etaPeak     int // peak eta-file length observed between refactorizations
	maximize    bool
	warmOK      bool // a warm basis was installed; phase 1 is skipped
}

// newSolver copies the problem into solver form: structural and slack
// columns, bounds and costs. The starting basis is installed separately by
// coldStart or warmStart.
func newSolver(p *Problem, opts Options, newFactor func(m int) basisFactor) *solver {
	m := len(p.ops)
	nStruct := len(p.obj)
	s := &solver{
		m:         m,
		nStruct:   nStruct,
		tol:       opts.Tol,
		maxIter:   opts.MaxIterations,
		ops:       p.ops,
		newFactor: newFactor,
	}
	if s.tol <= 0 {
		s.tol = 1e-9
	}
	s.ztol = 1e-11
	if s.maxIter <= 0 {
		s.maxIter = 50*(m+nStruct) + 10000
	}
	s.refactEvery = 600
	if m > 900 {
		s.refactEvery = 1500
	}

	sign := 1.0
	if p.sense == Maximize {
		sign = -1.0
		s.maximize = true
	}

	// Copy structural columns, costs, bounds.
	s.cols = make([][]nz, 0, nStruct+m)
	s.cost2 = make([]float64, 0, nStruct+m)
	s.lower = make([]float64, 0, nStruct+m)
	s.upper = make([]float64, 0, nStruct+m)
	for j := 0; j < nStruct; j++ {
		s.cols = append(s.cols, p.cols[j])
		s.cost2 = append(s.cost2, sign*p.obj[j])
		s.lower = append(s.lower, p.lower[j])
		s.upper = append(s.upper, p.upper[j])
	}
	// Slack/surplus columns: LE gets +1 slack in [0, inf); GE gets -1 surplus
	// in [0, inf); EQ gets none.
	s.b = append([]float64(nil), p.rhs...)
	s.slackOf = make([]int, m)
	for i := 0; i < m; i++ {
		s.slackOf[i] = -1
		switch p.ops[i] {
		case LE:
			s.cols = append(s.cols, []nz{{row: int32(i), val: 1}})
		case GE:
			s.cols = append(s.cols, []nz{{row: int32(i), val: -1}})
		case EQ:
			continue
		}
		s.cost2 = append(s.cost2, 0)
		s.lower = append(s.lower, 0)
		s.upper = append(s.upper, math.Inf(1))
		s.slackOf[i] = len(s.cols) - 1
	}
	s.nSlack = len(s.cols) - nStruct
	s.status = make([]int8, len(s.cols), len(s.cols)+m)
	s.pos = make([]int32, len(s.cols), len(s.cols)+m)
	return s
}

// finishInit sizes the iteration workspace once the basis (and any
// artificial columns) are in place.
func (s *solver) finishInit() {
	s.n = len(s.cols)
	s.y = make([]float64, s.m)
	s.w = make([]float64, s.m)
	s.rho = make([]float64, s.m)
	s.d = make([]float64, s.n)
	s.devex = make([]float64, s.n)
}

// coldStart installs the standard slack/artificial starting basis: every
// structural variable at a finite bound, slacks basic where feasible,
// artificials elsewhere.
func (s *solver) coldStart() {
	m := s.m
	// Initial nonbasic point: every variable at a finite bound.
	for j := 0; j < len(s.cols); j++ {
		if math.IsInf(s.lower[j], -1) {
			s.status[j] = atUpper
		} else {
			s.status[j] = atLower
		}
	}

	// Residual r = b - A·x_N over structural columns only (slacks are at 0).
	r := append([]float64(nil), s.b...)
	for j := 0; j < s.nStruct; j++ {
		v := s.nbValue(j)
		if v == 0 {
			continue
		}
		for _, e := range s.cols[j] {
			r[e.row] -= float64(e.val * v)
		}
	}

	// Choose the initial basis: slack when it is feasible for the row,
	// otherwise an artificial with the residual's sign.
	s.basis = make([]int, m)
	s.xB = make([]float64, m)
	for j := range s.pos {
		s.pos[j] = -1
	}
	binvDiag := make([]float64, m) // initial basis is diagonal ±1
	for i := 0; i < m; i++ {
		j := s.slackOf[i]
		feasibleSlack := false
		if j >= 0 {
			switch s.ops[i] {
			case LE:
				feasibleSlack = r[i] >= -s.tol
			case GE:
				feasibleSlack = r[i] <= s.tol
			}
		}
		if feasibleSlack {
			s.basis[i] = j
			s.status[j] = basic
			s.pos[j] = int32(i)
			if s.ops[i] == LE {
				s.xB[i] = math.Max(r[i], 0)
				binvDiag[i] = 1
			} else {
				s.xB[i] = math.Max(-r[i], 0)
				binvDiag[i] = -1
			}
			continue
		}
		// Artificial column.
		val := 1.0
		if r[i] < 0 {
			val = -1.0
		}
		s.cols = append(s.cols, []nz{{row: int32(i), val: val}})
		s.cost2 = append(s.cost2, 0)
		s.lower = append(s.lower, 0)
		s.upper = append(s.upper, math.Inf(1))
		s.status = append(s.status, basic)
		s.pos = append(s.pos, int32(i))
		aj := len(s.cols) - 1
		s.basis[i] = aj
		s.xB[i] = math.Abs(r[i])
		binvDiag[i] = val // inverse of ±1 is itself
		s.nArtificial++
	}
	s.factor = s.newFactor(m)
	s.factor.initDiag(binvDiag)
	s.refactors++
	s.finishInit()
}

// warmStart tries to install the basis snapshot b. On success the solver is
// primal feasible and solve skips phase 1. On any mismatch — wrong shape,
// basic-column count, singular basis, or primal infeasibility under the
// current bounds and right-hand side — it reports false without touching
// the solver, and the caller falls back to a cold start.
func (s *solver) warmStart(bs *Basis) bool {
	m := s.m
	if bs == nil || len(bs.Vars) != s.nStruct || len(bs.Rows) != m {
		return false
	}
	baseCols := s.nStruct + s.nSlack
	rollback := func() bool {
		s.cols = s.cols[:baseCols]
		s.cost2 = s.cost2[:baseCols]
		s.lower = s.lower[:baseCols]
		s.upper = s.upper[:baseCols]
		s.status = s.status[:baseCols]
		s.pos = s.pos[:baseCols]
		s.nArtificial = 0
		s.basis = nil
		s.xB = nil
		return false
	}

	var basicCols []int
	for j := 0; j < s.nStruct; j++ {
		switch bs.Vars[j] {
		case BasisBasic:
			s.status[j] = basic
			basicCols = append(basicCols, j)
		case BasisAtUpper:
			if math.IsInf(s.upper[j], 1) {
				if math.IsInf(s.lower[j], -1) {
					return rollback()
				}
				s.status[j] = atLower
			} else {
				s.status[j] = atUpper
			}
		default:
			if math.IsInf(s.lower[j], -1) {
				s.status[j] = atUpper
			} else {
				s.status[j] = atLower
			}
		}
	}
	for i := 0; i < m; i++ {
		if j := s.slackOf[i]; j >= 0 {
			s.status[j] = atLower
		}
		if bs.Rows[i] != BasisBasic {
			continue
		}
		if j := s.slackOf[i]; j >= 0 {
			s.status[j] = basic
			basicCols = append(basicCols, j)
			continue
		}
		// EQ row with its logical basic: recreate it as an artificial fixed
		// at zero (a degenerate but perfectly valid basic column).
		s.cols = append(s.cols, []nz{{row: int32(i), val: 1}})
		s.cost2 = append(s.cost2, 0)
		s.lower = append(s.lower, 0)
		s.upper = append(s.upper, 0)
		s.status = append(s.status, basic)
		s.pos = append(s.pos, -1)
		s.nArtificial++
		basicCols = append(basicCols, len(s.cols)-1)
	}
	if len(basicCols) != m {
		return rollback()
	}

	s.basis = make([]int, m)
	s.xB = make([]float64, m)
	for j := range s.pos {
		s.pos[j] = -1
	}
	// The basis matrix is the set of basic columns; the position pairing is
	// bookkeeping only, so ascending column order is as good as any and
	// deterministic.
	for i, j := range basicCols {
		s.basis[i] = j
		s.pos[j] = int32(i)
	}
	s.factor = s.newFactor(m)
	if m > 0 && !s.factor.refactor(s.basis, s.cols) {
		return rollback()
	}
	s.refactors++
	s.finishInit()
	s.recomputeXB()

	// Primal feasibility of the warm basis under the current data.
	ftol := float64(1e-7 * (1 + s.bNorm()))
	for i := 0; i < m; i++ {
		j := s.basis[i]
		if s.xB[i] < s.lower[j]-ftol || s.xB[i] > s.upper[j]+ftol {
			return rollback()
		}
	}
	s.warmOK = true
	return true
}

// nbValue returns the value of nonbasic column j.
func (s *solver) nbValue(j int) float64 {
	if s.status[j] == atUpper {
		return s.upper[j]
	}
	return s.lower[j]
}

// value returns the current value of any column.
func (s *solver) value(j int) float64 {
	if s.status[j] == basic {
		return s.xB[s.pos[j]]
	}
	return s.nbValue(j)
}

func (s *solver) solve() (*Solution, error) {
	if !s.warmOK && s.nArtificial > 0 {
		// Phase 1: minimize the sum of artificials.
		s.cost = make([]float64, s.n)
		for j := s.nStruct + s.nSlack; j < s.n; j++ {
			s.cost[j] = 1
		}
		st := s.iterate()
		if st == IterLimit {
			return s.report(IterLimit), nil
		}
		if s.phaseObjective() > 1e-6*(1+s.bNorm()) {
			return s.report(Infeasible), nil
		}
		// Freeze artificials at zero for phase 2.
		for j := s.nStruct + s.nSlack; j < s.n; j++ {
			s.upper[j] = 0
			if s.status[j] != basic {
				s.status[j] = atLower
			}
		}
	}
	s.cost = s.cost2
	// Pad phase-2 costs for artificial columns.
	for len(s.cost) < s.n {
		s.cost = append(s.cost, 0)
	}
	st := s.iterate()
	return s.report(st), nil
}

func (s *solver) bNorm() float64 {
	norm := 0.0
	for _, v := range s.b {
		norm = math.Max(norm, math.Abs(v))
	}
	return norm
}

// phaseObjective returns c·x for the current cost vector.
func (s *solver) phaseObjective() float64 {
	obj := 0.0
	for j := 0; j < s.n; j++ {
		if c := s.cost[j]; c != 0 {
			obj += float64(c * s.value(j))
		}
	}
	return obj
}

// computeDuals fills s.y = c_B · B^{-1} via one BTRAN.
func (s *solver) computeDuals() {
	for i := range s.y {
		s.y[i] = s.cost[s.basis[i]]
	}
	s.factor.btran(s.y)
}

// reducedCost returns c_j - y·A_j using the current s.y.
func (s *solver) reducedCost(j int) float64 {
	d := s.cost[j]
	for _, e := range s.cols[j] {
		d -= float64(s.y[e.row] * e.val)
	}
	return d
}

// refreshDuals recomputes the dual vector, every nonbasic reduced cost and
// resets the Devex reference framework. Called at phase starts, periodically
// to wash out incremental drift, and before declaring optimality.
func (s *solver) refreshDuals() {
	s.computeDuals()
	for j := 0; j < s.n; j++ {
		if s.status[j] == basic {
			s.d[j] = 0
		} else {
			s.d[j] = s.reducedCost(j)
		}
		s.devex[j] = 1
	}
}

// ftran fills s.w = B^{-1} A_j.
func (s *solver) ftran(j int) {
	s.factor.ftranCol(s.cols[j], s.w)
}

// iterate runs simplex pivots until optimality/unboundedness/limit for the
// current cost vector. It assumes a feasible basis.
func (s *solver) iterate() Status {
	const dtol = 1e-7
	const refreshEvery = 120
	// The loops below run on slice headers loaded into locals once. Read
	// through s, every header would be reloaded after each store (a store
	// through a slice might alias a field of s) and every index checked;
	// locals of one length let range loops drop those checks.
	m, n := s.m, s.n
	status, lower, upper := s.status[:n], s.lower[:n], s.upper[:n]
	d, devex, cols, cost := s.d[:n], s.devex[:n], s.cols[:n], s.cost[:n]
	basis, xB, w, rho := s.basis[:m], s.xB[:m], s.w[:m], s.rho
	s.refreshDuals()
	sinceRefactor := 0
	sinceRefresh := 0
	stall := 0
	justRefreshed := true
	for {
		if s.iterations >= s.maxIter {
			return IterLimit
		}
		s.iterations++
		sinceRefactor++
		sinceRefresh++
		if sinceRefactor >= s.refactEvery {
			s.refactorize()
			s.refreshDuals()
			sinceRefactor, sinceRefresh = 0, 0
			justRefreshed = true
		} else if sinceRefresh >= refreshEvery {
			s.refreshDuals()
			sinceRefresh = 0
			justRefreshed = true
		}

		useBland := s.blandOn

		// Pricing over the maintained reduced costs: Devex by default,
		// Bland's rule under stall-triggered anti-cycling.
		enter := -1
		bestScore := 0.0
		var enterDir float64 // +1 increasing from lower, -1 decreasing from upper
		for j, st := range status {
			if st == basic || lower[j] == upper[j] {
				continue
			}
			dj := d[j]
			var dir float64
			if st == atLower && dj < -dtol {
				dir = 1
			} else if st == atUpper && dj > dtol {
				dir = -1
			} else {
				continue
			}
			if useBland {
				enter, enterDir = j, dir
				break
			}
			score := dj * dj / devex[j]
			if score > bestScore {
				bestScore, enter, enterDir = score, j, dir
			}
		}
		if enter < 0 {
			if justRefreshed {
				s.blandOn = false
				return Optimal
			}
			// The maintained reduced costs may have drifted; confirm
			// optimality on fresh duals.
			s.refreshDuals()
			sinceRefresh = 0
			justRefreshed = true
			continue
		}
		justRefreshed = false

		s.ftran(enter)

		// Exact reduced cost of the entering column from the FTRAN vector:
		// d_q = c_q − c_B·(B^{-1}A_q). Guards against drift in s.d.
		dq := cost[enter]
		for i, bi := range basis {
			if cb := cost[bi]; cb != 0 {
				dq -= float64(cb * w[i])
			}
		}
		if (enterDir > 0 && dq >= -dtol/10) || (enterDir < 0 && dq <= dtol/10) {
			// Stale entry: fix it and re-price.
			d[enter] = dq
			continue
		}

		// Ratio test.
		tBound := upper[enter] - lower[enter] // bound-flip distance
		tBest := tBound
		leave := -1           // basis position of the leaving variable
		leaveToUpper := false // side the leaving variable exits at
		bestPivot := 0.0
		ztol := s.ztol
		for i, bj := range basis {
			wi := enterDir * w[i]
			var t float64
			var toUpper bool
			if wi > ztol {
				lo := lower[bj]
				if math.IsInf(lo, -1) {
					continue
				}
				t = (xB[i] - lo) / wi
			} else if wi < -ztol {
				up := upper[bj]
				if math.IsInf(up, 1) {
					continue
				}
				t = (xB[i] - up) / wi // wi<0, numerator<=0 → t>=0
				toUpper = true
			} else {
				continue
			}
			if t < -1e-12 {
				t = 0
			}
			// Prefer strictly smaller t; on near ties prefer the larger
			// |pivot| for stability (or the smallest column index under
			// Bland's rule).
			if t < tBest-1e-12 {
				tBest, leave, leaveToUpper, bestPivot = t, i, toUpper, math.Abs(w[i])
			} else if t <= tBest+1e-12 && leave >= 0 {
				if useBland {
					if bj < basis[leave] {
						leave, leaveToUpper, bestPivot = i, toUpper, math.Abs(w[i])
					}
				} else if math.Abs(w[i]) > bestPivot {
					leave, leaveToUpper, bestPivot = i, toUpper, math.Abs(w[i])
				}
			}
		}

		if math.IsInf(tBest, 1) {
			return Unbounded
		}

		// Degeneracy bookkeeping: fall back to Bland's rule after a stall to
		// guarantee termination.
		if tBest <= 1e-12 {
			stall++
			if stall > 2*(m+64) {
				s.blandOn = true
			}
		} else {
			stall = 0
			s.blandOn = false
		}

		if leave < 0 {
			// Bound flip: entering variable crosses to its other bound. The
			// duals are unchanged, so d and the Devex weights stay valid.
			for i := range xB {
				xB[i] -= float64(enterDir * tBest * w[i])
			}
			if status[enter] == atLower {
				status[enter] = atUpper
			} else {
				status[enter] = atLower
			}
			continue
		}

		alphaQ := w[leave]
		if math.Abs(alphaQ) < 1e-9 || !s.factor.willAccept(leave, w) {
			// Pivot too small for a stable eta update (or the eta file is
			// full): refactorize the current — still consistent — basis and
			// retry with clean numbers. Checking before the pivot commits
			// means the factorization and the basis bookkeeping can never
			// disagree, even if a later refactorization were to fail.
			s.refactorize()
			s.refreshDuals()
			sinceRefactor, sinceRefresh = 0, 0
			justRefreshed = true
			continue
		}

		// The pivot row of B^{-1} drives the incremental reduced-cost and
		// Devex updates; it must be taken before the basis changes.
		s.factor.pivotRow(leave, rho)

		// Pivot: entering replaces basis[leave].
		enterStart := s.nbValue(enter)
		for i := range xB {
			if i != leave {
				xB[i] -= float64(enterDir * tBest * w[i])
			}
		}
		leaving := basis[leave]
		if leaveToUpper {
			status[leaving] = atUpper
		} else {
			status[leaving] = atLower
		}
		s.pos[leaving] = -1
		basis[leave] = enter
		status[enter] = basic
		s.pos[enter] = int32(leave)
		xB[leave] = enterStart + float64(enterDir*tBest)

		s.factor.update(leave, w)

		// Incremental dual update: y' = y + θ·ρ with θ = d_q/α_q, hence
		// d'_j = d_j − θ·α_j where α_j = ρ·A_j. One sparse pass updates the
		// reduced costs and Devex weights of every nonbasic column.
		theta := dq / alphaQ
		wq := devex[enter]
		aq2 := alphaQ * alphaQ
		for j, st := range status {
			if st == basic {
				continue
			}
			var alphaJ float64
			for _, e := range cols[j] {
				alphaJ += float64(rho[e.row] * e.val)
			}
			if alphaJ == 0 {
				continue
			}
			d[j] -= float64(theta * alphaJ)
			if ref := alphaJ * alphaJ / aq2 * wq; ref > devex[j] {
				devex[j] = ref
			}
		}
		d[enter] = 0
		d[leaving] = -theta
		if ref := math.Max(wq/aq2, 1); ref > devex[leaving] {
			devex[leaving] = ref
		}
	}
}

// refactorize rebuilds the basis factorization from the basis columns and
// recomputes the basic variable values, correcting accumulated
// floating-point drift. A numerically singular basis keeps the previous
// factorization rather than propagating garbage (it should not happen with
// valid pivots).
func (s *solver) refactorize() {
	if s.m == 0 {
		return
	}
	s.sampleEta()
	if s.factor.refactor(s.basis, s.cols) {
		s.refactors++
		s.recomputeXB()
	}
}

// sampleEta records the current eta-file length into the running peak.
// Called just before each refactorization (which resets the file) and once
// at the end of the solve.
func (s *solver) sampleEta() {
	if s.factor == nil {
		return
	}
	if u := s.factor.updates(); u > s.etaPeak {
		s.etaPeak = u
	}
}

// recomputeXB sets xB = B^{-1}(b - N x_N) from scratch.
func (s *solver) recomputeXB() {
	r := append([]float64(nil), s.b...)
	for j := 0; j < s.n; j++ {
		if s.status[j] == basic {
			continue
		}
		v := s.nbValue(j)
		if v == 0 {
			continue
		}
		for _, e := range s.cols[j] {
			r[e.row] -= float64(e.val * v)
		}
	}
	s.factor.ftran(r)
	copy(s.xB, r)
}

// snapshotBasis records the final basis in problem space: a status per
// structural variable and, per row, whether the row's logical (slack,
// surplus or artificial) column is basic.
func (s *solver) snapshotBasis() *Basis {
	b := &Basis{Vars: make([]int8, s.nStruct), Rows: make([]int8, s.m)}
	for j := 0; j < s.nStruct; j++ {
		b.Vars[j] = s.status[j]
	}
	for _, j := range s.basis {
		if j >= s.nStruct {
			// Logical columns have exactly one entry; its row identifies them.
			b.Rows[s.cols[j][0].row] = BasisBasic
		}
	}
	return b
}

// report assembles the Solution in the caller's orientation.
func (s *solver) report(st Status) *Solution {
	sol := &Solution{
		Status:      st,
		X:           make([]float64, s.nStruct),
		Dual:        make([]float64, s.m),
		ReducedCost: make([]float64, s.nStruct),
		Iterations:  s.iterations,
	}
	if st == Infeasible {
		return sol
	}
	for j := 0; j < s.nStruct; j++ {
		v := s.value(j)
		// Snap tiny values to their bound to counter floating point noise.
		if !math.IsInf(s.lower[j], -1) && math.Abs(v-s.lower[j]) < 1e-9 {
			v = s.lower[j]
		}
		if !math.IsInf(s.upper[j], 1) && math.Abs(v-s.upper[j]) < 1e-9 {
			v = s.upper[j]
		}
		sol.X[j] = v
	}
	// Internal orientation is minimize; flip objective/duals/reduced costs
	// back for maximize problems.
	sign := 1.0
	if s.maximize {
		sign = -1.0
	}
	s.computeDuals()
	obj := 0.0
	for j := 0; j < s.n; j++ {
		if c := s.cost[j]; c != 0 {
			obj += float64(c * s.value(j))
		}
	}
	sol.Objective = sign * obj
	for i := 0; i < s.m; i++ {
		sol.Dual[i] = sign * s.y[i]
	}
	for j := 0; j < s.nStruct; j++ {
		sol.ReducedCost[j] = sign * s.reducedCost(j)
	}
	if st == Optimal || st == IterLimit {
		sol.Basis = s.snapshotBasis()
	}
	return sol
}
