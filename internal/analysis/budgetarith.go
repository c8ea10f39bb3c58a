package analysis

import (
	"go/ast"
	"go/token"
)

// budgetAllowedPkgs may perform raw ε/δ arithmetic: internal/ledger owns
// sequential-composition accounting, internal/dp owns mechanism calibration
// (ε′ = ε/d, constraint coefficients), and internal/mechanism owns each
// mechanism's declared release cost and the competitor mechanisms' own
// calibration (the laplace threshold τ and ZEALOUS τ₁/τ₂).
var budgetAllowedPkgs = []string{"internal/ledger", "internal/dp", "internal/mechanism"}

// epsFieldNames are the field names treated as privacy parameters.
var epsFieldNames = map[string]bool{
	"Epsilon":      true,
	"Delta":        true,
	"Eps":          true,
	"EpsPrime":     true,
	"EpsilonPrime": true,
}

// BudgetArith keeps budget arithmetic in one home. The (ε,δ) accounting of
// §5 composes sequentially; a stray `b.Epsilon - eps` in a handler is a
// second, unaudited implementation of composition. Everything outside the
// allowed packages must go through ledger/dp helpers (ledger.Remaining,
// dp.MinDeltaFor, ...). Comparisons against the literal 0 are exempt:
// testing "is this budget set at all" is presence-checking, not
// composition.
var BudgetArith = &Analyzer{
	Name: "budgetarith",
	Doc: "flag raw float arithmetic or comparison on ε/δ-named fields or ledger.Budget members " +
		"outside internal/ledger, internal/dp and internal/mechanism: sequential-composition " +
		"accounting must have exactly one implementation (zero-value presence checks are exempt)",
	Run: runBudgetArith,
}

func runBudgetArith(pass *Pass) error {
	if pathIs(pass.Path, budgetAllowedPkgs...) {
		return nil
	}
	info := pass.Pkg.Info
	isBudgetOperand := func(e ast.Expr) (string, bool) {
		sel, ok := unparen(e).(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		if epsFieldNames[sel.Sel.Name] {
			return sel.Sel.Name, true
		}
		// Any member of the ledger Budget type (also visible as the
		// dpslog.Budget alias) counts, whatever it is called.
		if s, ok := info.Selections[sel]; ok && namedFrom(s.Recv(), "Budget", "internal/ledger") {
			return "Budget." + sel.Sel.Name, true
		}
		return "", false
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				switch n.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO,
					token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				default:
					return true
				}
				switch n.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
				default:
					// Comparisons against the literal 0 are validation
					// ("is ε set", "is ε positive"), not composition.
					if isZeroLit(n.X) || isZeroLit(n.Y) {
						return true
					}
				}
				for _, side := range []ast.Expr{n.X, n.Y} {
					if name, ok := isBudgetOperand(side); ok {
						pass.Reportf(n.OpPos, "raw %s arithmetic on %s outside the budget packages: route composition through internal/ledger or internal/dp helpers", n.Op, name)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.SUB {
					if name, ok := isBudgetOperand(n.X); ok {
						pass.Reportf(n.OpPos, "raw negation of %s outside the budget packages: route composition through internal/ledger or internal/dp helpers", name)
					}
				}
			case *ast.AssignStmt:
				switch n.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
					for _, lhs := range n.Lhs {
						if name, ok := isBudgetOperand(lhs); ok {
							pass.Reportf(n.TokPos, "raw %s on %s outside the budget packages: route composition through internal/ledger or internal/dp helpers", n.Tok, name)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}
