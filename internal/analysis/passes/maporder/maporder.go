// Package maporder flags range statements over maps whose bodies are
// sensitive to iteration order — the classic silent killer of
// byte-identical traces.
//
// Go randomizes map iteration order on purpose, so a map range that
// appends to an outer slice, calls out (emitting an event, formatting
// an error, writing a trace or manifest field), sends on a channel,
// accumulates into a float/string, or returns its first match (a return
// that reads the key or value) is nondeterministic between two runs of
// the same binary with the same inputs. Order-insensitive bodies —
// writing into another map, deleting keys, integer counting — pass.
//
// The sanctioned pattern also passes: a loop that only collects keys
// (or values) into a slice is fine when that slice is visibly sorted
// in the same function:
//
//	keys := make([]string, 0, len(m))
//	for k := range m {
//		keys = append(keys, k)
//	}
//	sort.Strings(keys)
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = analysis.Register(&analysis.Analyzer{
	Name: "maporder",
	Doc: "flag map ranges whose body is iteration-order sensitive " +
		"(appends, calls, channel sends, float/string accumulation, a first match returned) unless the collected slice is sorted",
	Run: run,
})

func run(pass *analysis.Pass) error {
	if !analysis.Match(pass.Config.Deterministic, pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		// Track the enclosing function body so the sort-after-collect
		// check can look past the loop.
		var stack []*ast.BlockStmt
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return false
				}
				stack = append(stack, n.Body)
				ast.Inspect(n.Body, walk)
				stack = stack[:len(stack)-1]
				return false
			case *ast.FuncLit:
				stack = append(stack, n.Body)
				ast.Inspect(n.Body, walk)
				stack = stack[:len(stack)-1]
				return false
			case *ast.RangeStmt:
				if len(stack) > 0 && isMapRange(pass, n) {
					checkMapRange(pass, n, stack[len(stack)-1])
				}
				return true
			}
			return true
		}
		ast.Inspect(f, walk)
	}
	return nil
}

func isMapRange(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	_, isMap := pass.TypesInfo.TypeOf(rs.X).Underlying().(*types.Map)
	return isMap
}

func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) {
	var appendTargets []types.Object
	var sensitive string // first order-sensitive operation found
	note := func(why string) {
		if sensitive == "" {
			sensitive = why
		}
	}

	// consumed marks append calls already claimed by a self-append
	// assignment, so the generic call classifier skips them.
	consumed := make(map[ast.Node]bool)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(n.Lhs) == 1 && accumulatesOrderSensitively(pass, n.Lhs[0]) {
					note("accumulates into a float/string in map order")
				}
			case token.ASSIGN:
				if obj, call, ok := selfAppend(pass, n); ok {
					consumed[call] = true
					if declaredBefore(obj, rs) {
						appendTargets = append(appendTargets, obj)
					}
				}
			}
		case *ast.SendStmt:
			note("sends on a channel in map order")
		case *ast.CallExpr:
			if consumed[n] {
				return true
			}
			if pass.TypesInfo.Types[n.Fun].IsType() {
				return true // conversion
			}
			switch analysis.BuiltinNameOf(pass.TypesInfo, n.Fun) {
			case "append", "cap", "clear", "copy", "delete", "len", "make", "max", "min", "new":
				return true // order-insensitive builtins
			case "":
				note("calls out in map order")
			default:
				note("calls " + analysis.BuiltinNameOf(pass.TypesInfo, n.Fun) + " in map order")
			}
		}
		return true
	})

	if sensitive == "" && returnsElement(pass, rs) {
		note("returns its first match in map order")
	}
	if sensitive != "" {
		pass.Reportf(rs.For,
			"range over a map %s; iteration order is nondeterministic — iterate sorted keys", sensitive)
		return
	}
	for _, obj := range appendTargets {
		if !sortedInFunc(pass, fnBody, obj) {
			pass.Reportf(rs.For,
				"range over a map appends to %s in map order; sort %s afterwards (sort.Strings, sort.Slice, slices.Sort, …) or iterate sorted keys",
				obj.Name(), obj.Name())
			return
		}
	}
}

// returnsElement reports whether a return in the loop (not in a
// function literal) reads the range's key or value, or a variable
// assigned from one: the first match, in an order that differs between
// runs.
func returnsElement(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	from := make(map[types.Object]bool)
	mark := func(es ...ast.Expr) {
		for _, e := range es {
			if id, ok := e.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) != nil {
				from[pass.TypesInfo.ObjectOf(id)] = true
			}
		}
	}
	reads := func(es []ast.Expr) (found bool) {
		for _, e := range es {
			ast.Inspect(e, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				found = found || ok && from[pass.TypesInfo.ObjectOf(id)]
				return !found
			})
		}
		return found
	}
	mark(rs.Key, rs.Value)
	found := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if reads(n.Rhs) {
				mark(n.Lhs...)
			}
		case *ast.ReturnStmt:
			found = reads(n.Results)
		}
		return !found
	})
	return found
}

// selfAppend matches `s = append(s, ...)` and returns s's object.
func selfAppend(pass *analysis.Pass, as *ast.AssignStmt) (types.Object, *ast.CallExpr, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil, false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, nil, false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || analysis.BuiltinNameOf(pass.TypesInfo, call.Fun) != "append" || len(call.Args) == 0 {
		return nil, nil, false
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return nil, nil, false
	}
	obj := pass.TypesInfo.ObjectOf(lhs)
	if obj == nil || obj != pass.TypesInfo.ObjectOf(first) {
		return nil, nil, false
	}
	return obj, call, true
}

// declaredBefore reports whether the object outlives the loop — i.e.
// was declared before the range statement, so the map-ordered appends
// are observable outside it.
func declaredBefore(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos()
}

// accumulatesOrderSensitively reports whether compound assignment to
// the expression is order-sensitive: float and complex addition are
// non-associative in finite precision, string += concatenates in
// visit order. Integer accumulation commutes and passes.
func accumulatesOrderSensitively(pass *analysis.Pass, lhs ast.Expr) bool {
	b, ok := pass.TypesInfo.TypeOf(lhs).Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0
}

// sorters are the calls that leave their slice argument sorted. Any
// other sort.* or slices.* call (Contains, Clone, SearchStrings, …)
// only reads the slice, still in map order.
var sorters = map[string]map[string]bool{
	"sort": {"Strings": true, "Ints": true, "Float64s": true,
		"Sort": true, "Stable": true, "Slice": true, "SliceStable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortedInFunc reports whether the function visibly sorts the
// collected slice: a call to one of the sorters with the object as an
// argument anywhere in the enclosing function body.
func sortedInFunc(pass *analysis.Pass, fnBody *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		path, name, ok := analysis.CalleeOf(pass.TypesInfo, call)
		if !ok || !sorters[path][name] {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
				found = true
			}
		}
		return true
	})
	return found
}
