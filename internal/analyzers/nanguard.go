package analyzers

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// NaNGuard flags exported float64-returning functions in the numeric
// core (xbar/internal/core, internal/asymptotic, internal/dist) whose
// bodies compute through math.Exp, math.Log, or floating-point
// division without either (a) checking math.IsNaN / math.IsInf
// somewhere in the body, or (b) documenting a domain precondition in
// the doc comment. Algorithm 1's scaled recursion moves values
// through Exp/Log round trips near the underflow boundary (N≈85 at
// raw float64); a NaN born there propagates silently into every
// downstream blocking probability. The doc-comment escape hatch
// accepts phrases containing "must", "panics", "requires",
// "precondition", "domain", "NaN", "Inf", "undefined", or "defined
// only" — i.e. the function states the domain contract instead of
// checking it.
var NaNGuard = &Analyzer{
	Name: "nanguard",
	Doc:  "Exp/Log/division in exported numeric API without IsNaN/IsInf check or documented domain precondition",
	Run:  runNaNGuard,
}

// nanguardPackages are the import-path suffixes the check applies to:
// the numeric kernel of the reproduction.
var nanguardPackages = []string{
	"internal/core",
	"internal/asymptotic",
	"internal/dist",
}

var precondRe = regexp.MustCompile(`(?i)\b(must|panics?|precondition|requires?|required|domain|NaN|Inf|undefined|defined only)\b`)

func runNaNGuard(pass *Pass) {
	scoped := false
	for _, suffix := range nanguardPackages {
		if strings.HasSuffix(pass.ImportPath, suffix) {
			scoped = true
			break
		}
	}
	if !scoped {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !exportedFunc(fd) {
				continue
			}
			if !returnsFloat64(pass, fd) {
				continue
			}
			if fd.Doc != nil && precondRe.MatchString(fd.Doc.Text()) {
				continue
			}
			risky, guarded := scanBody(pass, fd.Body)
			if risky != "" && !guarded {
				pass.Reportf(fd.Name.Pos(),
					"exported %s returns float64 computed via %s without an IsNaN/IsInf check or documented domain precondition",
					fd.Name.Name, risky)
			}
		}
	}
}

// returnsFloat64 reports whether any result of fd is float-typed.
func returnsFloat64(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, field := range fd.Type.Results.List {
		if isFloat(pass.Info, field.Type) {
			return true
		}
	}
	return false
}

// scanBody looks for risky numeric operations and NaN/Inf guards in
// one pass over the function body. risky names the first risky
// operation found ("" if none).
func scanBody(pass *Pass, body *ast.BlockStmt) (risky string, guarded bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass.Info, n)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
				return true
			}
			switch fn.Name() {
			case "Exp", "Exp2", "Expm1", "Log", "Log2", "Log10", "Log1p":
				if risky == "" {
					risky = "math." + fn.Name()
				}
			case "IsNaN", "IsInf":
				guarded = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.QUO && risky == "" &&
				(isFloat(pass.Info, n.X) || isFloat(pass.Info, n.Y)) &&
				!isConst(pass.Info, n.Y) {
				risky = "float division"
			}
		}
		return true
	})
	return risky, guarded
}
