package analysis

import "go/ast"

// barego: one worker pool. Parallel work fans out through par.For, which
// bounds the worker count, returns errors in index order and re-raises a
// worker's panic on the calling goroutine, where the panic fences
// (resilience.Guard, the HTTP recovery middleware) can catch it. A bare
// go statement has none of that: a panic on it kills the process. The
// rule flags every go statement outside internal/par; goroutines that are
// not fan-out work (a server's accept loop, a waiter that must outlive
// its request) say so with a suppression.
func init() {
	register(&Rule{
		Name: "barego",
		Doc:  "go statements belong in internal/par; fan parallel work out through par.For",
		Run:  runBareGo,
	})
}

func runBareGo(pass *Pass) []Finding {
	if pass.Module.relPath(pass.Pkg.Path) == "internal/par" {
		return nil
	}
	var out []Finding
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				out = append(out, pass.finding(g.Pos(), "barego",
					"bare go statement: fan parallel work out through par.For, which bounds workers and re-raises a worker's panic on the caller"))
			}
			return true
		})
	}
	return out
}
