package lp

import "math"

// denseFactor is the reference oracle for the sparse LU factorization: an
// explicit m×m basis inverse kept up to date by full rank-one eta updates
// (O(m²) per pivot, O(m²) memory). Simple enough to trust, it lets the tests
// cross-check luFactor primitive by primitive and whole solves through
// solveWith.
type denseFactor struct {
	m        int
	binv     []float64 // row-major explicit inverse
	nUpdates int
}

func newDenseFactor(m int) basisFactor {
	return &denseFactor{m: m, binv: make([]float64, m*m)}
}

func (f *denseFactor) initDiag(diag []float64) {
	m := f.m
	for i := range f.binv {
		f.binv[i] = 0
	}
	for i := 0; i < m; i++ {
		f.binv[i*m+i] = diag[i] // inverse of ±1 is itself
	}
	f.nUpdates = 0
}

// refactor rebuilds the explicit inverse via Gauss-Jordan elimination with
// partial pivoting.
func (f *denseFactor) refactor(basis []int, cols [][]nz) bool {
	m := f.m
	B := make([]float64, m*m)
	for c := 0; c < m; c++ {
		for _, e := range cols[basis[c]] {
			B[int(e.row)*m+c] = e.val
		}
	}
	inv := make([]float64, m*m)
	for i := 0; i < m; i++ {
		inv[i*m+i] = 1
	}
	for col := 0; col < m; col++ {
		p := col
		best := math.Abs(B[col*m+col])
		for i := col + 1; i < m; i++ {
			if a := math.Abs(B[i*m+col]); a > best {
				best, p = a, i
			}
		}
		if best < 1e-13 {
			return false
		}
		if p != col {
			swapRows(B, m, p, col)
			swapRows(inv, m, p, col)
		}
		piv := B[col*m+col]
		invPiv := 1.0 / piv
		for c := 0; c < m; c++ {
			B[col*m+c] *= invPiv
			inv[col*m+c] *= invPiv
		}
		for i := 0; i < m; i++ {
			if i == col {
				continue
			}
			fac := B[i*m+col]
			if fac == 0 {
				continue
			}
			for c := 0; c < m; c++ {
				B[i*m+c] -= fac * B[col*m+c]
				inv[i*m+c] -= fac * inv[col*m+c]
			}
		}
	}
	f.binv = inv
	f.nUpdates = 0
	return true
}

func swapRows(a []float64, m, i, j int) {
	ri := a[i*m : (i+1)*m]
	rj := a[j*m : (j+1)*m]
	for c := 0; c < m; c++ {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

func (f *denseFactor) ftranCol(col []nz, w []float64) {
	m := f.m
	for i := range w {
		w[i] = 0
	}
	for _, e := range col {
		v := e.val
		c := int(e.row)
		for i := 0; i < m; i++ {
			w[i] += f.binv[i*m+c] * v
		}
	}
}

func (f *denseFactor) ftran(x []float64) {
	m := f.m
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		row := f.binv[i*m : (i+1)*m]
		sum := 0.0
		for c, v := range row {
			sum += v * x[c]
		}
		out[i] = sum
	}
	copy(x, out)
}

func (f *denseFactor) btran(x []float64) {
	m := f.m
	out := make([]float64, m)
	for r := 0; r < m; r++ {
		v := x[r]
		if v == 0 {
			continue
		}
		row := f.binv[r*m : (r+1)*m]
		for i, b := range row {
			out[i] += v * b
		}
	}
	copy(x, out)
}

func (f *denseFactor) pivotRow(r int, rho []float64) {
	copy(rho, f.binv[r*f.m:(r+1)*f.m])
}

// willAccept: the dense inverse applies any pivot the ratio-test guard
// (|w[r]| ≥ 1e-9) admits.
func (f *denseFactor) willAccept(int, []float64) bool { return true }

// update applies the eta transformation for a pivot in row r using the
// FTRAN vector w (= B⁻¹·A_enter).
func (f *denseFactor) update(r int, w []float64) {
	m := f.m
	piv := w[r]
	rowR := f.binv[r*m : (r+1)*m]
	inv := 1.0 / piv
	for c := 0; c < m; c++ {
		rowR[c] *= inv
	}
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		fac := w[i]
		if fac == 0 {
			continue
		}
		row := f.binv[i*m : (i+1)*m]
		for c := 0; c < m; c++ {
			row[c] -= fac * rowR[c]
		}
	}
	f.nUpdates++
}

func (f *denseFactor) updates() int { return f.nUpdates }
