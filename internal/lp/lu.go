package lp

import "math"

// luFactor is the solver's basis factorization: a sparse LU factorization of the basis
// (P·B·Q = L·U) maintained between refactorizations by a product-form eta
// file. Columns are factorized in ascending-nonzero-count order (the static
// Markowitz rule — cheapest columns first keeps fill low on the extremely
// sparse bases the Theorem-1 constraint systems produce) with
// threshold partial row pivoting for stability. Each numeric column solve
// uses the Gilbert–Peierls reachability DFS, so factorization cost is
// proportional to arithmetic work rather than m².
//
// FTRAN applies L⁻¹/U⁻¹ and then the eta file in creation order; BTRAN
// applies the transposed etas in reverse order and then the transposed
// triangular solves. A pivot row of B⁻¹ is one BTRAN of a unit vector, with
// its eta pass restricted to the vector's own nonzeros (see pivotRow).
type luFactor struct {
	m int

	// L: unit lower triangular, stored by elimination column; row indices
	// are original constraint rows (the row permutation lives in p/pinv).
	lp []int32
	li []int32
	lx []float64
	// U: upper triangular, stored by elimination column with the diagonal
	// split off; row indices are pivot positions (< column position).
	up []int32
	ui []int32
	ux []float64
	ud []float64
	// Permutations: p maps pivot position -> original row, q maps
	// elimination order -> basis position.
	p, pinv []int32
	q       []int32

	// Product-form eta file: eta t transforms B_t into B_{t+1} after the
	// pivot (etaRow[t], pivot value etaPiv[t], off-pivot entries
	// etaIdx/etaVal in [etaPtr[t], etaPtr[t+1])).
	etaPtr []int32
	etaRow []int32
	etaPiv []float64
	etaIdx []int32
	etaVal []float64
	// etaDense repeats eta t as the dense row etaDense[t·m:(t+1)·m]: its
	// off-pivot entries, 0 at the pivot position. Allocated on the first
	// update and reused across refactorizations (maxEtas·m float64s).
	etaDense []float64
	// rhoPos lists pivotRow's nonzero positions in ascending order.
	rhoPos []int32

	// Scratch for solves and factorization.
	work  []float64
	work2 []float64
	// DFS state for Gilbert–Peierls.
	stack    []int32
	stackL   []int32 // per-stack-frame position within the L column
	pattern  []int32
	visited  []int32
	visitGen int32

	maxEtas int
}

func newLUFactor(m int) basisFactor {
	f := &luFactor{
		m:       m,
		work:    make([]float64, m),
		work2:   make([]float64, m),
		visited: make([]int32, m),
		p:       make([]int32, m),
		pinv:    make([]int32, m),
		q:       make([]int32, m),
		maxEtas: 64,
	}
	if m > 512 {
		f.maxEtas = 128
	}
	return f
}

// initDiag installs the trivial factorization of a diagonal ±1 basis:
// empty L, diagonal U, identity permutations.
func (f *luFactor) initDiag(diag []float64) {
	m := f.m
	f.lp = make([]int32, m+1)
	f.li, f.lx = f.li[:0], f.lx[:0]
	f.up = make([]int32, m+1)
	f.ui, f.ux = f.ui[:0], f.ux[:0]
	f.ud = append(f.ud[:0], diag...)
	for k := 0; k < m; k++ {
		f.p[k] = int32(k)
		f.pinv[k] = int32(k)
		f.q[k] = int32(k)
	}
	f.etaPtr = f.etaPtr[:0]
	f.etaRow = f.etaRow[:0]
	f.etaPiv = f.etaPiv[:0]
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
}

// refactor computes a fresh P·B·Q = L·U factorization. On singularity it
// returns false and leaves the previous factorization (and eta file) alone.
func (f *luFactor) refactor(basis []int, cols [][]nz) bool {
	m := f.m
	// Static Markowitz column order: ascending nonzero count, stable.
	order := make([]int32, m)
	for j := range order {
		order[j] = int32(j)
	}
	// Counting sort by column length (lengths are small).
	maxLen := 0
	for _, j := range basis {
		if l := len(cols[j]); l > maxLen {
			maxLen = l
		}
	}
	buckets := make([]int32, maxLen+2)
	for pos := 0; pos < m; pos++ {
		buckets[len(cols[basis[pos]])+1]++
	}
	for i := 1; i < len(buckets); i++ {
		buckets[i] += buckets[i-1]
	}
	for pos := 0; pos < m; pos++ {
		l := len(cols[basis[pos]])
		order[buckets[l]] = int32(pos)
		buckets[l]++
	}

	// Fresh factor state built aside; swapped in only on success.
	lpN := make([]int32, m+1)
	var liN []int32
	var lxN []float64
	upN := make([]int32, m+1)
	var uiN []int32
	var uxN []float64
	udN := make([]float64, m)
	pN := make([]int32, m)
	pinvN := make([]int32, m)
	qN := make([]int32, m)
	for i := range pinvN {
		pinvN[i] = -1
	}

	x := f.work
	for i := range x {
		x[i] = 0
	}

	for k := 0; k < m; k++ {
		j := order[k] // basis position being eliminated
		col := cols[basis[j]]

		// Symbolic: reachability DFS through the partial L.
		f.pattern = f.pattern[:0]
		gen := f.nextGen()
		for _, e := range col {
			rr := e.row
			if f.visited[rr] == gen {
				continue
			}
			f.dfs(rr, gen, pinvN, lpN, liN)
		}
		// Numeric: scatter the column and eliminate in topological order
		// (pattern is in reverse topological order from the DFS postorder,
		// so walk it backwards).
		for _, e := range col {
			x[e.row] += e.val
		}
		for t := len(f.pattern) - 1; t >= 0; t-- {
			rr := f.pattern[t]
			pk := pinvN[rr]
			if pk < 0 {
				continue
			}
			xt := x[rr]
			if xt == 0 {
				continue
			}
			for idx := lpN[pk]; idx < lpN[pk+1]; idx++ {
				x[liN[idx]] -= float64(lxN[idx] * xt)
			}
		}

		// Pivot selection among not-yet-pivoted rows: partial pivoting by
		// magnitude with a deterministic smallest-row tie-break (sparsity
		// control comes from the static column order above).
		pivRow := int32(-1)
		pivAbs := 0.0
		for _, rr := range f.pattern {
			if pinvN[rr] >= 0 {
				continue
			}
			a := math.Abs(x[rr])
			if a > pivAbs || (a == pivAbs && pivRow >= 0 && rr < pivRow) {
				pivAbs, pivRow = a, rr
			}
		}
		if pivRow < 0 || pivAbs < 1e-13 {
			// Structurally or numerically singular column.
			for _, rr := range f.pattern {
				x[rr] = 0
			}
			return false
		}

		// Emit U column k (entries at already-pivoted rows) and L column k
		// (entries at the remaining rows, scaled by the pivot).
		piv := x[pivRow]
		udN[k] = piv
		for _, rr := range f.pattern {
			v := x[rr]
			x[rr] = 0
			if v == 0 || rr == pivRow {
				continue
			}
			if pk := pinvN[rr]; pk >= 0 {
				uiN = append(uiN, pk)
				uxN = append(uxN, v)
			} else {
				liN = append(liN, rr)
				lxN = append(lxN, v/piv)
			}
		}
		upN[k+1] = int32(len(uiN))
		lpN[k+1] = int32(len(liN))
		pN[k] = pivRow
		pinvN[pivRow] = int32(k)
		qN[k] = j
	}

	f.lp, f.li, f.lx = lpN, liN, lxN
	f.up, f.ui, f.ux, f.ud = upN, uiN, uxN, udN
	f.p, f.pinv, f.q = pN, pinvN, qN
	f.etaPtr = f.etaPtr[:0]
	f.etaRow = f.etaRow[:0]
	f.etaPiv = f.etaPiv[:0]
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
	return true
}

// nextGen starts a fresh generation of visited marks, clearing the marks
// when the generation counter would wrap.
func (f *luFactor) nextGen() int32 {
	if f.visitGen == math.MaxInt32 {
		clear(f.visited)
		f.visitGen = 0
	}
	f.visitGen++
	return f.visitGen
}

// dfs pushes the reachable set of original row rr (through already-pivoted
// rows' L columns) onto f.pattern in postorder.
func (f *luFactor) dfs(root int32, gen int32, pinv []int32, lp []int32, li []int32) {
	f.stack = f.stack[:0]
	f.stackL = f.stackL[:0]
	f.stack = append(f.stack, root)
	f.stackL = append(f.stackL, -1)
	f.visited[root] = gen
	for len(f.stack) > 0 {
		top := len(f.stack) - 1
		rr := f.stack[top]
		pk := pinv[rr]
		start := f.stackL[top]
		if start == -1 {
			if pk < 0 {
				// Unpivoted leaf.
				f.pattern = append(f.pattern, rr)
				f.stack = f.stack[:top]
				f.stackL = f.stackL[:top]
				continue
			}
			start = lp[pk]
		}
		descended := false
		for idx := start; idx < lp[pk+1]; idx++ {
			child := li[idx]
			if f.visited[child] == gen {
				continue
			}
			f.visited[child] = gen
			f.stackL[top] = idx + 1
			f.stack = append(f.stack, child)
			f.stackL = append(f.stackL, -1)
			descended = true
			break
		}
		if !descended {
			f.pattern = append(f.pattern, rr)
			f.stack = f.stack[:top]
			f.stackL = f.stackL[:top]
		}
	}
}

// baseFtran solves B₀·out = x for the factorized base (ignoring etas),
// reading x indexed by constraint row and writing out indexed by basis
// position. x is destroyed.
func (f *luFactor) baseFtran(x, out []float64) {
	m := f.m
	z := f.work2[:m]
	// Forward solve L·z = P·x.
	lp, li, lx := f.lp[:m+1], f.li, f.lx
	for k, pk := range f.p[:m] {
		zk := x[pk]
		z[k] = zk
		if zk == 0 {
			continue
		}
		rows := li[lp[k]:lp[k+1]]
		vals := lx[lp[k]:lp[k+1]][:len(rows)]
		for t, i := range rows {
			x[i] -= float64(vals[t] * zk)
		}
	}
	// Backward solve U·ŵ = z, column oriented.
	up, ui, ux, ud := f.up[:m+1], f.ui, f.ux, f.ud[:m]
	for k := m - 1; k >= 0; k-- {
		wk := z[k] / ud[k]
		z[k] = wk
		if wk == 0 {
			continue
		}
		pos := ui[up[k]:up[k+1]]
		vals := ux[up[k]:up[k+1]][:len(pos)]
		for t, i := range pos {
			z[i] -= float64(vals[t] * wk)
		}
	}
	// Un-permute columns: out[q[k]] = ŵ[k].
	for k, qk := range f.q[:m] {
		out[qk] = z[k]
	}
}

// applyEtas finishes an FTRAN: x := E_t⁻¹ ··· E_1⁻¹ x.
func (f *luFactor) applyEtas(x []float64) {
	etaRow := f.etaRow
	etaPiv := f.etaPiv[:len(etaRow)]
	etaPtr, etaIdx, etaVal := f.etaPtr, f.etaIdx, f.etaVal
	for t, r := range etaRow {
		xr := x[r] / etaPiv[t]
		x[r] = xr
		if xr == 0 {
			continue
		}
		idx := etaIdx[etaPtr[t]:etaPtr[t+1]]
		val := etaVal[etaPtr[t]:etaPtr[t+1]][:len(idx)]
		for k, i := range idx {
			x[i] -= float64(val[k] * xr)
		}
	}
}

func (f *luFactor) ftranCol(col []nz, w []float64) {
	x := f.work
	for i := range x {
		x[i] = 0
	}
	for _, e := range col {
		x[e.row] += e.val
	}
	f.baseFtran(x, w)
	// baseFtran leaves x zeroed only on its read pattern; clear fully.
	for i := range x {
		x[i] = 0
	}
	f.applyEtas(w)
}

func (f *luFactor) ftran(x []float64) {
	out := make([]float64, f.m)
	in := f.work
	copy(in, x)
	f.baseFtran(in, out)
	for i := range in {
		in[i] = 0
	}
	f.applyEtas(out)
	copy(x, out)
}

func (f *luFactor) btran(x []float64) {
	// Transposed etas in reverse creation order.
	etaRow := f.etaRow
	etaPiv := f.etaPiv[:len(etaRow)]
	etaPtr, etaIdx, etaVal := f.etaPtr, f.etaIdx, f.etaVal
	for t := len(etaRow) - 1; t >= 0; t-- {
		r := etaRow[t]
		idx := etaIdx[etaPtr[t]:etaPtr[t+1]]
		val := etaVal[etaPtr[t]:etaPtr[t+1]][:len(idx)]
		s := 0.0
		for k, i := range idx {
			s += float64(val[k] * x[i])
		}
		x[r] = (x[r] - s) / etaPiv[t]
	}
	f.baseBtran(x)
}

// baseBtran overwrites x with B₀⁻ᵀ·x for the factorized base (ignoring
// etas).
func (f *luFactor) baseBtran(x []float64) {
	m := f.m
	z := f.work2[:m]
	// v[k] = x[q[k]]; forward solve Uᵀ·v' = v (row k of Uᵀ is column k of U).
	for k, qk := range f.q[:m] {
		z[k] = x[qk]
	}
	up, ui, ux, ud := f.up[:m+1], f.ui, f.ux, f.ud[:m]
	for k := range z {
		pos := ui[up[k]:up[k+1]]
		vals := ux[up[k]:up[k+1]][:len(pos)]
		s := z[k]
		for t, i := range pos {
			s -= float64(vals[t] * z[i])
		}
		z[k] = s / ud[k]
	}
	// Backward solve Lᵀ·(P·y) = v' (row k of Lᵀ is column k of L).
	lp, li, lx, pinv := f.lp[:m+1], f.li, f.lx, f.pinv
	for k := m - 1; k >= 0; k-- {
		rows := li[lp[k]:lp[k+1]]
		vals := lx[lp[k]:lp[k+1]][:len(rows)]
		s := z[k]
		for t, i := range rows {
			s -= float64(vals[t] * z[pinv[i]])
		}
		z[k] = s
	}
	for k, pk := range f.p[:m] {
		x[pk] = z[k]
	}
}

// pivotRow is btran(e_r) with a sparse eta pass. The vector starts as e_r
// and eta t writes only rho[etaRow[t]], so before eta t it has at most one
// nonzero per eta already applied plus one; each transposed eta's dot
// product walks those positions (ascending, the order btran adds its terms
// in) against the eta's dense row instead of all of the eta's nonzeros.
// The result is bit-identical to btran's: every term skipped is ±0 added to
// a sum that starts at +0 and so never changes it. A position joins the
// list once, when it first becomes nonzero, and stays listed if its value
// cancels back to zero — listing it again would count its term twice.
func (f *luFactor) pivotRow(r int, rho []float64) {
	clear(rho)
	rho[r] = 1
	m := f.m
	gen := f.nextGen()
	visited := f.visited
	visited[r] = gen
	pos := append(f.rhoPos[:0], int32(r))
	etaRow, etaDense := f.etaRow, f.etaDense
	etaPiv := f.etaPiv[:len(etaRow)]
	for t := len(etaRow) - 1; t >= 0; t-- {
		d := etaDense[t*m : (t+1)*m]
		s := 0.0
		for _, i := range pos {
			s += float64(d[i] * rho[i])
		}
		k := etaRow[t]
		v := (rho[k] - s) / etaPiv[t]
		rho[k] = v
		if v != 0 && visited[k] != gen {
			visited[k] = gen
			j := len(pos)
			pos = append(pos, k)
			for ; j > 0 && pos[j-1] > k; j-- {
				pos[j] = pos[j-1]
			}
			pos[j] = k
		}
	}
	f.rhoPos = pos
	f.baseBtran(rho)
}

// willAccept refuses a pivot when the eta file is full or the pivot is too
// small relative to the transformed column — except on a freshly
// refactorized basis, where the numbers are as clean as they will get and
// refusing again could live-lock the caller's refactorize-and-retry loop.
func (f *luFactor) willAccept(r int, w []float64) bool {
	if len(f.etaRow) >= f.maxEtas {
		return false
	}
	if len(f.etaRow) == 0 {
		return true
	}
	piv := w[r]
	maxAbs := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	return math.Abs(piv) >= 1e-8*maxAbs
}

// update appends a product-form eta for a pivot at basis position r with
// FTRAN vector w. Call only after willAccept.
func (f *luFactor) update(r int, w []float64) {
	piv := w[r]
	if len(f.etaPtr) == 0 {
		f.etaPtr = append(f.etaPtr, 0)
	}
	if f.etaDense == nil {
		// A full file holds at most m-1 off-pivot entries per eta, so the
		// sparse lists never grow past this capacity.
		f.etaIdx = make([]int32, 0, f.maxEtas*f.m)
		f.etaVal = make([]float64, 0, f.maxEtas*f.m)
		f.etaDense = make([]float64, f.maxEtas*f.m)
	}
	for i, v := range w {
		if i == r || v == 0 {
			continue
		}
		f.etaIdx = append(f.etaIdx, int32(i))
		f.etaVal = append(f.etaVal, v)
	}
	f.etaPtr = append(f.etaPtr, int32(len(f.etaIdx)))
	d := f.etaDense[len(f.etaRow)*f.m:][:f.m]
	copy(d, w)
	d[r] = 0
	f.etaRow = append(f.etaRow, int32(r))
	f.etaPiv = append(f.etaPiv, piv)
}

func (f *luFactor) updates() int { return len(f.etaRow) }
