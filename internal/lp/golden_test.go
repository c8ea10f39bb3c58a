package lp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand/v2"
	"testing"

	"dpslog/internal/dp"
	"dpslog/internal/gen"
)

// smallOUMPProblem builds the O-UMP LP of the small profile at seed 1 and
// e^ε = 2, δ = 0.25: maximize the retained output under the Theorem-1
// budget rows. It is the largest LP the tests solve (881 pivots, 7
// refactorizations) and the one release-lp's solves look like.
func smallOUMPProblem(tb testing.TB) *Problem {
	tb.Helper()
	_, pre, _, err := gen.GeneratePreprocessed(gen.Small(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	cons, err := dp.Build(pre, dp.FromEExp(2, 0.25))
	if err != nil {
		tb.Fatal(err)
	}
	p := NewProblem(Maximize)
	for i := 0; i < pre.NumPairs(); i++ {
		p.AddVariable(1, 0, float64(pre.PairCount(i)))
	}
	for _, row := range cons.Rows {
		k := p.AddConstraint(LE, cons.Budget)
		for _, term := range row.Terms {
			p.SetCoef(k, term.Pair, term.Coef)
		}
	}
	return p
}

// hashSolution writes every output bit of sol that a caller can see into
// h: status, objective, primal, dual and reduced-cost bits, and the pivot
// and refactorization counts.
func hashSolution(h hash.Hash, sol *Solution) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	floats := func(xs []float64) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(math.Float64bits(x))
		}
	}
	word(uint64(sol.Status))
	word(math.Float64bits(sol.Objective))
	floats(sol.X)
	floats(sol.Dual)
	floats(sol.ReducedCost)
	word(uint64(sol.Iterations))
	word(uint64(sol.Stats.Refactorizations))
}

// Golden digests of the solver's output bits, recorded before the kernel's
// inner loops were rewritten on hoisted local slices. An exact change to
// the kernel (same operations, same order, same roundings) cannot move
// them; a change that moves them is not exact and needs a reason.
const (
	smallOUMPGoldenDigest = "0e9750c3e886c2572471fada8c5b710669c2b2ceef33af67c5e551d9c15e01b1"
	randomLPsGoldenDigest = "34911356007db239a5673eb32e20daa84971df9d244c506e62c27dc3c3f6cbe2"
)

// TestSolutionBitsGolden pins the LP's output bits: the small profile's
// O-UMP LP and a seeded batch of random feasible and packing LPs, each
// hashed with its pivot and refactorization counts.
func TestSolutionBitsGolden(t *testing.T) {
	digest := func(probs ...*Problem) string {
		h := sha256.New()
		for _, p := range probs {
			sol, err := Solve(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			hashSolution(h, sol)
		}
		return hex.EncodeToString(h.Sum(nil))
	}

	if got := digest(smallOUMPProblem(t)); got != smallOUMPGoldenDigest {
		t.Errorf("small O-UMP solution digest = %s, want %s", got, smallOUMPGoldenDigest)
	}

	r := rand.New(rand.NewPCG(29, 3))
	var probs []*Problem
	for trial := 0; trial < 60; trial++ {
		sense := Minimize
		if trial%2 == 0 {
			sense = Maximize
		}
		probs = append(probs,
			randomFeasibleLP(r, sense, 1+r.IntN(30), 1+r.IntN(30), true),
			randomPackingLP(r))
	}
	if got := digest(probs...); got != randomLPsGoldenDigest {
		t.Errorf("random LP batch solution digest = %s, want %s", got, randomLPsGoldenDigest)
	}
}

// BenchmarkSolveSmallOUMP times one cold solve of the small profile's
// O-UMP LP, with its allocations.
func BenchmarkSolveSmallOUMP(b *testing.B) {
	p := smallOUMPProblem(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Solve(p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
