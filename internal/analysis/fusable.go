package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// fusablePkgs are the release packages: everything a release's bytes are
// computed in. They are the packages CI cross-compiles for arm64 and scans
// for fused multiply-adds.
var fusablePkgs = []string{
	"internal/lp", "internal/dp", "internal/ump", "internal/mechanism",
	"internal/searchlog", "internal/partition", "internal/sampling", "internal/rng",
}

// Fusable keeps release bytes independent of the CPU. The Go spec lets the
// compiler fuse x*y + z into one rounding, and gc does so on arm64, so an
// unconverted product feeding a sum rounds differently there than on amd64.
// An explicit float64(x*y) forces the product's rounding and compiles to the
// same amd64 code.
var Fusable = &Analyzer{
	Name: "fusable",
	Doc: "flag float x*y ± z, z ± x*y, z += x*y and z -= x*y without a float64(x*y) conversion " +
		"in the release packages: arm64 fuses them into one rounding, so release bytes would " +
		"depend on the CPU (fusions across statements are left to CI's arm64 -S step)",
	Run: runFusable,
}

func runFusable(pass *Pass) error {
	if !pathIs(pass.Path, fusablePkgs...) {
		return nil
	}
	info := pass.Pkg.Info
	// product reports whether e, under parentheses and unary signs, is a
	// float multiplication evaluated at run time.
	product := func(e ast.Expr) bool {
		for {
			e = unparen(e)
			u, ok := e.(*ast.UnaryExpr)
			if !ok || (u.Op != token.SUB && u.Op != token.ADD) {
				break
			}
			e = u.X
		}
		b, ok := e.(*ast.BinaryExpr)
		return ok && b.Op == token.MUL && runtimeFloat(info, b)
	}
	report := func(pos token.Pos, op token.Token) {
		pass.Reportf(pos, "fusable float %s of a product: arm64 may fuse it into one rounding; write the product as float64(x*y)", op)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.ADD || n.Op == token.SUB) && runtimeFloat(info, n) &&
					(product(n.X) || product(n.Y)) {
					report(n.OpPos, n.Op)
				}
			case *ast.AssignStmt:
				if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) &&
					len(n.Rhs) == 1 && product(n.Rhs[0]) {
					report(n.TokPos, n.Tok)
				}
			}
			return true
		})
	}
	return nil
}

// runtimeFloat reports whether e has a floating-point type and is not a
// constant.
func runtimeFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
