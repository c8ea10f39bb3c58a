package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// strictClosePkgs hold fsync-before-rename durability paths: the corpus
// store's atomic TSV publish and the append-only journals of the ledger and
// the version chains. There, a discarded Sync error means a "durable" write
// may not be.
var strictClosePkgs = []string{"internal/corpus", "internal/ledger", "internal/journal"}

// DeferClose is the PR 7 trace-file bug class: `defer f.Close()` on a file
// opened for writing throws away the one error that reports a failed
// flush. The analyzer flags a bare deferred Close when the receiver is a
// writable *os.File (origin os.Create / os.CreateTemp / writable
// os.OpenFile, tracked within the function) or any type implementing
// io.WriteCloser — unless the function also closes the same receiver with
// its error consumed (the dual-close idiom: explicit checked Close on the
// success path, deferred Close as error-path cleanup). In the strict
// durability packages it additionally flags discarded x.Sync() errors and
// discarded x.Close() errors on writable files outside
// cleanup-before-error-return blocks.
var DeferClose = &Analyzer{
	Name: "deferclose",
	Doc: "flag bare `defer f.Close()` on writable *os.File / io.WriteCloser values without error " +
		"handling (close explicitly and propagate, or dual-close); in internal/corpus, " +
		"internal/ledger and internal/journal also flag discarded Sync/Close errors on the durability paths",
	Run: runDeferClose,
}

// fileOrigin classifies how an *os.File variable was obtained.
type fileOrigin int

const (
	originUnknown fileOrigin = iota
	originRead
	originWrite
)

// writableOpenFlags detects write intent in an os.OpenFile flag argument:
// any mention of a writing flag makes it writable; a non-literal flag
// expression is conservatively treated as writable.
func writableOpenFlags(e ast.Expr) bool {
	writable := false
	pure := true // only O_RDONLY / 0 / | compositions seen
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := unparen(e).(type) {
		case *ast.BinaryExpr:
			if e.Op != token.OR {
				pure = false
				return
			}
			walk(e.X)
			walk(e.Y)
		case *ast.SelectorExpr:
			switch e.Sel.Name {
			case "O_WRONLY", "O_RDWR", "O_APPEND", "O_CREATE", "O_TRUNC":
				writable = true
			case "O_RDONLY", "O_SYNC", "O_EXCL":
			default:
				pure = false
			}
		case *ast.BasicLit:
			if e.Value != "0" {
				pure = false
			}
		default:
			pure = false
		}
	}
	walk(e)
	return writable || !pure
}

// fileOrigins scans one function for `x, err := os.Create(...)`-shaped
// assignments and records each variable's read/write origin by its
// types.Object, so shadowing cannot confuse the match.
func fileOrigins(info *types.Info, fn *ast.FuncDecl) map[types.Object]fileOrigin {
	origins := make(map[types.Object]fileOrigin)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(as.Lhs) == 0 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return true
		}
		name, ok := pkgFuncCall(info, call, "os", "Open", "Create", "CreateTemp", "OpenFile")
		if !ok {
			return true
		}
		switch name {
		case "Open":
			origins[obj] = originRead
		case "Create", "CreateTemp":
			origins[obj] = originWrite
		case "OpenFile":
			if len(call.Args) >= 2 && !writableOpenFlags(call.Args[1]) {
				origins[obj] = originRead
			} else {
				origins[obj] = originWrite
			}
		}
		return true
	})
	return origins
}

// closeCall matches x.<method>() receivers for Close/Sync with no args.
func methodCall(call *ast.CallExpr, method string) (recv ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != method || len(call.Args) != 0 {
		return nil, false
	}
	return sel.X, true
}

func runDeferClose(pass *Pass) error {
	info := pass.Pkg.Info
	strict := pathIs(pass.Path, strictClosePkgs...)
	writer, closer := stdIfaces()

	for _, fn := range funcDecls(pass.Files) {
		origins := fileOrigins(info, fn)

		// recvOrigin resolves a receiver expression to its tracked origin.
		recvOrigin := func(recv ast.Expr) fileOrigin {
			if id, ok := unparen(recv).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					if o, ok := origins[obj]; ok {
						return o
					}
				}
			}
			return originUnknown
		}
		recvType := func(recv ast.Expr) types.Type {
			if tv, ok := info.Types[recv]; ok {
				return tv.Type
			}
			return nil
		}

		// Pass 1: receivers whose Close error is consumed somewhere in the
		// function (the dual-close idiom's explicit half).
		consumed := make(map[string]bool)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, ok := methodCall(call, "Close")
			if !ok {
				return true
			}
			stmt, _ := enclosingStmt(fn.Body, call)
			switch s := stmt.(type) {
			case *ast.ExprStmt:
				if s.X == call {
					return true // discarded
				}
			case *ast.DeferStmt:
				if s.Call == call {
					return true // bare defer
				}
			case nil:
				return true
			}
			consumed[exprString(unparen(recv))] = true
			return true
		})

		// Pass 2: report.
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if recv, ok := methodCall(call, "Sync"); ok && strict {
				if t := recvType(recv); isOSFile(t) {
					stmt, _ := enclosingStmt(fn.Body, call)
					if es, isExpr := stmt.(*ast.ExprStmt); isExpr && es.X == call {
						pass.Reportf(call.Pos(), "Sync error discarded on the durability path: a failed fsync must fail the write")
					}
				}
				return true
			}
			recv, ok := methodCall(call, "Close")
			if !ok {
				return true
			}
			t := recvType(recv)
			var writable bool
			switch {
			case isOSFile(t):
				writable = recvOrigin(recv) == originWrite
			case t != nil && implementsEither(t, writer) && implementsEither(t, closer):
				writable = true
			}
			if !writable {
				return true
			}
			stmt, block := enclosingStmt(fn.Body, call)
			switch s := stmt.(type) {
			case *ast.DeferStmt:
				if s.Call != call {
					return true // inside a defer'd closure: assumed handled
				}
				if consumed[exprString(unparen(recv))] {
					return true // dual-close: checked Close exists elsewhere
				}
				pass.Reportf(s.Pos(), "bare defer %s.Close() on a writable file discards the flush error: close explicitly and propagate it (keep the defer as error-path cleanup if you also check an explicit Close)", exprString(unparen(recv)))
			case *ast.ExprStmt:
				if s.X != call || !strict {
					return true
				}
				// Cleanup before an error return is fine: the original
				// error wins. Anything else on the durability path must
				// consume the Close error.
				if block != nil && errorReturnFollows(info, block, s) {
					return true
				}
				pass.Reportf(call.Pos(), "Close error discarded on the durability path: consume it or return immediately after cleanup")
			}
			return true
		})
	}
	return nil
}

// errorReturnFollows reports whether a return statement carrying a non-nil
// error value appears in block after stmt — the shape of
// `f.Close(); return ..., err` cleanup, where the original error wins and
// the Close error may be dropped. A bare `return` or `return nil` does not
// qualify: it would swallow the durability failure outright.
func errorReturnFollows(info *types.Info, block *ast.BlockStmt, stmt ast.Stmt) bool {
	errType, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	seen := false
	for _, s := range block.List {
		if s == stmt {
			seen = true
			continue
		}
		if !seen {
			continue
		}
		ret, ok := s.(*ast.ReturnStmt)
		if !ok {
			continue
		}
		for _, res := range ret.Results {
			if tv, ok := info.Types[res]; ok && tv.Type != nil && types.Implements(tv.Type, errType) {
				return true
			}
		}
	}
	return false
}
