package lp

// basisFactor abstracts how the basis inverse is represented and applied.
// The solver only ever needs four linear-algebra primitives — FTRAN, BTRAN,
// the pivot row of B⁻¹, and a rank-one basis-change update. Production
// solves use the sparse LU factorization (lu.go); the tests plug a dense
// explicit inverse in behind the same interface as a reference oracle.
//
// All vectors are dense length-m slices. FTRAN results and pivot rows are
// indexed by basis position; by construction basis position i is also
// constraint row i, so callers never translate between the two spaces.
type basisFactor interface {
	// initDiag installs the factorization of a diagonal starting basis with
	// the given ±1 diagonal (the cold-start slack/artificial basis), without
	// paying for a general refactorization.
	initDiag(diag []float64)
	// refactor rebuilds the factorization from scratch for the basis whose
	// column at position i is cols[basis[i]]. It returns false when the
	// matrix is numerically singular, in which case the previous
	// factorization is left untouched.
	refactor(basis []int, cols [][]nz) bool
	// ftranCol sets w = B⁻¹·A_j for the sparse column col, overwriting w.
	ftranCol(col []nz, w []float64)
	// ftran overwrites x with B⁻¹·x.
	ftran(x []float64)
	// btran overwrites x with B⁻ᵀ·x (x enters indexed by basis position and
	// leaves indexed by constraint row; the two coincide here).
	btran(x []float64)
	// pivotRow sets rho to row r of B⁻¹ (equivalently B⁻ᵀ·e_r). It must be
	// called before update for the same pivot.
	pivotRow(r int, rho []float64)
	// willAccept reports whether an update for a pivot at position r with
	// FTRAN vector w can be applied safely (update file not full, pivot not
	// degenerate relative to the transformed column). The solver asks
	// BEFORE committing the pivot, so a refusal refactorizes the current —
	// still consistent — basis and retries with clean numbers; the factor
	// and the solver's basis bookkeeping can never drift apart.
	willAccept(r int, w []float64) bool
	// update applies the basis change "column entering at position r" given
	// the FTRAN vector w = B⁻¹·A_enter. Call only after willAccept.
	update(r int, w []float64)
	// updates reports the number of updates applied since the last refactor.
	updates() int
}
