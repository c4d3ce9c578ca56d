package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// detpath: determinism-critical packages must stay replayable. Corpus
// labels are pinned byte-identical across serial and parallel runs, gob
// round trips are pinned bit-exact, and the nn/gnn tapes replay training
// step for step — all of which dies the moment wall-clock time, the
// global math/rand stream, or map iteration order leaks into a computed
// value. The rule forbids, inside the scoped packages:
//
//   - time.Now (wall-clock reads). Latency measurement that feeds a
//     reported metric by design is the suppression case — say so.
//   - package-level math/rand and math/rand/v2 draws (rand.Int,
//     rand.Float64, rand.Shuffle, ...): the global stream is shared
//     mutable state seeded per process. Constructing seeded generators
//     (rand.New, rand.NewSource, rand.NewPCG, ...) is fine.
//   - ranging over a map where the iteration feeds computation or output
//     order: the body draws from a *rand.Rand (each key then gets a
//     different part of the stream on every run), appends to a slice
//     (unless that slice is sorted afterwards in the same function — the
//     collect-and-sort idiom), accumulates floats, or passes the iteration
//     variables to calls. Counting, set construction, and other
//     order-insensitive bodies are not flagged.
//
// The scope is every package whose output reaches a label, a feature
// graph or a trained artifact: the data and workload generators, the
// engine oracle and its optimizer simulation, feature extraction, and the
// models and advisors built on them.
var detpathScope = []string{
	"internal/nn",
	"internal/gnn",
	"internal/ce",
	"internal/experiments",
	"internal/testbed",
	"internal/ann",
	"internal/core",
	"internal/workload",
	"internal/datagen",
	"internal/dataset",
	"internal/engine",
	"internal/pgsim",
	"internal/feature",
	"internal/gbt",
	"internal/advisor",
}

func init() {
	register(&Rule{
		Name: "detpath",
		Doc:  "determinism-critical packages must not read wall-clock time, global rand, or map order",
		Run:  runDetPath,
	})
}

// inDetScope reports whether the pass's package is determinism-critical:
// its module-relative path equals a scope entry or lives beneath one.
func inDetScope(pass *Pass) bool {
	rel := pass.Module.relPath(pass.Pkg.Path)
	for _, s := range detpathScope {
		if rel == s || strings.HasPrefix(rel, s+"/") {
			return true
		}
	}
	return false
}

func runDetPath(pass *Pass) []Finding {
	if !inDetScope(pass) {
		return nil
	}
	var out []Finding
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleePkgFunc(info, call); fn != nil {
				pkgPath := fn.Pkg().Path()
				switch {
				case pkgPath == "time" && fn.Name() == "Now":
					out = append(out, pass.finding(n.Pos(), "detpath",
						"time.Now in a determinism-critical package; labels and tapes must be byte-identical across runs"))
				case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") &&
					!strings.HasPrefix(fn.Name(), "New"):
					out = append(out, pass.finding(n.Pos(), "detpath",
						"global %s.%s draws from the shared process-wide stream; use a seeded *rand.Rand",
						pathBase(pkgPath), fn.Name()))
				}
			}
			return true
		})
		// Map-range order checks run per function scope (closures
		// included — corpus pipelines fan work through func literals).
		for _, body := range funcScopes(f) {
			out = append(out, checkMapRanges(pass, body)...)
		}
	}
	return out
}

// calleePkgFunc resolves a call to a package-level function object
// (pkg.F form), or nil.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	// Only package-qualified calls: the X must be a package name.
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if _, isPkg := info.Uses[id].(*types.PkgName); !isPkg {
		return nil
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	return fn
}

// checkMapRanges flags map iterations whose order feeds computation.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) []Finding {
	info := pass.Pkg.Info
	var out []Finding
	inspectShallow(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if reason := mapOrderSensitivity(pass, body, rng); reason != "" {
			out = append(out, pass.finding(rng.Pos(), "detpath",
				"map iteration order feeds %s; collect the keys, sort them, and iterate the sorted slice", reason))
		}
		return true
	})
	return out
}

// mapOrderSensitivity classifies a map-range body: the returned string
// names what the iteration order leaks into ("" = order-insensitive).
func mapOrderSensitivity(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) string {
	info := pass.Pkg.Info
	iterObjs := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				iterObjs[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				iterObjs[obj] = true
			}
		}
	}
	reason := ""
	inspectShallow(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Compound float accumulation: x += f(...) reorders float
			// rounding; integer accumulation commutes exactly and passes.
			if n.Tok.String() == "+=" || n.Tok.String() == "-=" || n.Tok.String() == "*=" || n.Tok.String() == "/=" {
				if tv, ok := info.Types[n.Lhs[0]]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
						reason = "float accumulation (rounding is order-dependent)"
						return false
					}
				}
			}
			// append into a slice that is not sorted later in the function.
			if len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && isBuiltinCall(info, call, "append") {
					if target, ok := n.Lhs[0].(*ast.Ident); ok {
						obj := objectOf(info, target)
						if obj != nil && !sortedLater(pass, fnBody, rng, obj) {
							reason = "slice order via append"
							return false
						}
					}
				}
			}
		case *ast.CallExpr:
			if isRandDraw(info, n) {
				reason = "RNG draws made in iteration order"
				return false
			}
			// A conversion such as int64(len(rows)) is no call; a real
			// call inside it is visited on its own.
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				return true
			}
			// Passing the iteration key/value into a call does work in
			// iteration order (inference, accumulation behind an API).
			if isBuiltinCall(info, n, "append") || isBuiltinCall(info, n, "len") ||
				isBuiltinCall(info, n, "cap") || isBuiltinCall(info, n, "delete") {
				return true
			}
			for _, arg := range n.Args {
				used := false
				ast.Inspect(arg, func(an ast.Node) bool {
					if id, ok := an.(*ast.Ident); ok && iterObjs[objectOf(info, id)] {
						used = true
					}
					return !used
				})
				if used {
					reason = "calls made in iteration order"
					return false
				}
			}
		}
		return true
	})
	return reason
}

// isRandDraw reports whether call is a method call on a math/rand or
// math/rand/v2 generator (rng.Intn, rng.Shuffle, ...).
func isRandDraw(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg := named.Obj().Pkg().Path()
	return (pkg == "math/rand" || pkg == "math/rand/v2") && named.Obj().Name() == "Rand"
}

// sortedLater reports whether obj (a slice) is passed to a sort call
// after the range statement — the collect-and-sort idiom.
func sortedLater(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	info := pass.Pkg.Info
	sorted := false
	inspectShallow(fnBody, func(n ast.Node) bool {
		if sorted || n == nil || n.Pos() <= rng.End() {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleePkgFunc(info, call)
		if fn == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && objectOf(info, id) == obj {
					sorted = true
				}
				return !sorted
			})
		}
		return true
	})
	return sorted
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
