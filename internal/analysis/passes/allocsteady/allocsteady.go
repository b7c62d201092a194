// Package allocsteady statically pins the zero-alloc steady state: no
// function reachable from a configured kernel root (the collide-stream
// Compute kernels, the halo Pack/Unpack pair, the worker step driver)
// may allocate. The runtime tests sample a few configurations with
// testing.AllocsPerRun; this pass closes the gap by walking the whole
// call graph statically, across packages, via per-function summaries
// exported as facts.
//
// Flagged forms: make, new, append (its growth reallocates), map and
// slice literals, heap-escaping composite literals (&T{...}), escaping
// closures, implicit variadic argument slices, and explicit
// conversions to interface types. Plain by-value struct literals are
// not allocations.
//
// Exemptions keep the pass honest about what "steady state" means:
//   - arguments to panic — a panicking kernel is off the steady path;
//   - blocks that end by returning when the function returns an error,
//     or by panicking — cold exit paths;
//   - closures that never escape the declaring function (assigned to a
//     local and only ever called, or invoked immediately) — the
//     compiler stack-allocates these;
//   - sites under a //detlint:allow allocsteady directive, honored at
//     summary-build time so an allow in internal/halo holds at every
//     caller in internal/lbm.
package allocsteady

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/dataflow"
)

var Analyzer = analysis.Register(&analysis.Analyzer{
	Name: "allocsteady",
	Doc: "flag allocations in functions reachable from the zero-alloc kernel roots " +
		"(Config.AllocRoots), following calls across packages via exported summaries",
	Run: run,
})

// fact is the per-package summary dependent packages import.
type fact struct {
	Funcs map[string]funcSummary `json:"funcs"`
}

type funcSummary struct {
	Allocs []allocSite `json:"allocs,omitempty"`
	Calls  []string    `json:"calls,omitempty"`
}

type allocSite struct {
	What string `json:"what"`
	Posn string `json:"posn"`
}

// localSite keeps the token.Pos for same-package reporting.
type localSite struct {
	what string
	pos  token.Pos
}

// callSite records where the current package calls a given key, so a
// dependency's allocation can be reported at the local call site.
type callSite struct {
	key string
	pos token.Pos
}

func run(pass *analysis.Pass) error {
	if !analysis.Match(pass.Config.AllocPath, pass.PkgPath) {
		return nil
	}

	funcs := dataflow.Functions(pass)
	local := make(map[string][]localSite, len(funcs))
	callPos := make(map[string][]callSite, len(funcs))
	out := fact{Funcs: make(map[string]funcSummary, len(funcs))}
	for _, fn := range funcs {
		sites, calls := collect(pass, fn.Decl)
		local[fn.Key] = sites
		callPos[fn.Key] = calls
		sum := funcSummary{}
		seen := make(map[string]bool)
		for _, c := range calls {
			if !seen[c.key] {
				seen[c.key] = true
				sum.Calls = append(sum.Calls, c.key)
			}
		}
		sort.Strings(sum.Calls)
		for _, s := range sites {
			sum.Allocs = append(sum.Allocs, allocSite{What: s.what, Posn: dataflow.Posn(pass.Fset, s.pos)})
		}
		out.Funcs[fn.Key] = sum
	}
	if err := pass.ExportFact(&out); err != nil {
		return err
	}

	// Merge dependency summaries into one call graph.
	edges := make(map[string][]string)
	depAllocs := make(map[string][]allocSite)
	for _, dep := range pass.FactPackages() {
		var f fact
		if ok, err := pass.ImportFact(dep, &f); err != nil {
			return err
		} else if !ok {
			continue
		}
		for key, sum := range f.Funcs {
			edges[key] = sum.Calls
			if len(sum.Allocs) > 0 {
				depAllocs[key] = sum.Allocs
			}
		}
	}
	for key, sum := range out.Funcs {
		edges[key] = sum.Calls
	}

	// Only roots declared in this package anchor reports here; each
	// kernel package reports its own closure exactly once.
	var roots []string
	for _, r := range pass.Config.AllocRoots {
		if _, ok := out.Funcs[r]; ok {
			roots = append(roots, r)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	reached, parent := dataflow.Reach(roots, edges)

	reachedKeys := make([]string, 0, len(reached))
	for k := range reached {
		reachedKeys = append(reachedKeys, k)
	}
	sort.Strings(reachedKeys)
	for _, key := range reachedKeys {
		root := dataflow.Path(parent, key)[0]
		if sites, ok := local[key]; ok {
			for _, s := range sites {
				pass.Reportf(s.pos, "%s on the zero-alloc steady path (reachable from %s)", s.what, root)
			}
			continue
		}
		// A dependency function: report at the local call site that
		// first leaves this package on the witness path.
		sites := depAllocs[key]
		if len(sites) == 0 {
			continue
		}
		path := dataflow.Path(parent, key)
		var caller, entered string
		for i := 1; i < len(path); i++ {
			if _, own := local[path[i]]; !own {
				caller, entered = path[i-1], path[i]
				break
			}
		}
		if caller == "" {
			continue
		}
		pos := findCall(callPos[caller], entered)
		if pos == token.NoPos {
			continue
		}
		for _, s := range sites {
			pass.Reportf(pos, "call reaches a steady-path allocation: %s in %s at %s (reachable from %s)",
				s.What, key, s.Posn, root)
		}
	}
	return nil
}

func findCall(calls []callSite, key string) token.Pos {
	for _, c := range calls {
		if c.key == key {
			return c.pos
		}
	}
	return token.NoPos
}

// collect returns the allocation sites in one function declaration,
// after exemptions and allow directives, plus its outgoing call edges.
// Calls on cold paths (panic arguments, error exits) are excluded from
// the edge set too — an error formatter invoked only on the way out is
// not on the steady path.
func collect(pass *analysis.Pass, fd *ast.FuncDecl) ([]localSite, []callSite) {
	returnsError := false
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			if tv, ok := pass.TypesInfo.Types[field.Type]; ok && analysis.IsErrorType(tv.Type) {
				returnsError = true
			}
		}
	}

	// First sweep: cold ranges (panic arguments, cold exit blocks) and
	// non-escaping closures.
	type span struct{ pos, end token.Pos }
	var cold []span
	stackClosure := make(map[*ast.FuncLit]bool)
	localFns := make(map[types.Object]*ast.FuncLit)
	callUses := make(map[types.Object]int)
	totalUses := make(map[types.Object]int)
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if analysis.BuiltinNameOf(pass.TypesInfo, n.Fun) == "panic" {
				cold = append(cold, span{n.Pos(), n.End()})
			}
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				stackClosure[lit] = true // immediately invoked
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					callUses[obj]++
				}
			}
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[n]; obj != nil {
				totalUses[obj]++
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if lit, ok := n.Rhs[0].(*ast.FuncLit); ok {
					if id, ok := n.Lhs[0].(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							localFns[obj] = lit
						}
					}
				}
			}
		case *ast.IfStmt:
			if coldBlock(pass, n.Body, returnsError) {
				cold = append(cold, span{n.Body.Pos(), n.Body.End()})
			}
			if blk, ok := n.Else.(*ast.BlockStmt); ok && coldBlock(pass, blk, returnsError) {
				cold = append(cold, span{blk.Pos(), blk.End()})
			}
		case *ast.CaseClause:
			if len(n.Body) > 0 && coldStmt(pass, n.Body[len(n.Body)-1], returnsError) {
				cold = append(cold, span{n.Pos(), n.End()})
			}
		}
		return true
	})
	for obj, lit := range localFns {
		if callUses[obj] > 0 && callUses[obj] == totalUses[obj] {
			stackClosure[lit] = true // only ever called, never escapes
		}
	}
	isCold := func(pos token.Pos) bool {
		for _, s := range cold {
			if s.pos <= pos && pos < s.end {
				return true
			}
		}
		return false
	}

	// Second sweep: allocation sites and steady-path call edges.
	var sites []localSite
	var calls []callSite
	add := func(pos token.Pos, what string) {
		if isCold(pos) || pass.Allowed(pos) {
			return
		}
		sites = append(sites, localSite{what, pos})
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !isCold(n.Pos()) {
				if key, ok := dataflow.CalleeKey(pass, n); ok {
					calls = append(calls, callSite{key, n.Pos()})
				}
			}
			switch analysis.BuiltinNameOf(pass.TypesInfo, n.Fun) {
			case "make":
				add(n.Pos(), "make")
				return true
			case "new":
				add(n.Pos(), "new")
				return true
			case "append":
				add(n.Pos(), "append (growth reallocates)")
				return true
			case "panic", "len", "cap", "copy", "delete", "clear", "min", "max", "print", "println":
				return true
			}
			if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
				if types.IsInterface(tv.Type) && len(n.Args) == 1 {
					if atv, ok := pass.TypesInfo.Types[n.Args[0]]; ok &&
						atv.Type != nil && !types.IsInterface(atv.Type) && !isUntypedNil(atv) {
						add(n.Pos(), "conversion to interface (boxes the value)")
					}
				}
				return true
			}
			if boxesVariadic(pass, n) {
				add(n.Pos(), "implicit argument slice for variadic call")
			}
		case *ast.CompositeLit:
			what, alloc := litKind(pass, n)
			if alloc {
				add(n.Pos(), what)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := n.X.(*ast.CompositeLit); ok {
					add(lit.Pos(), "composite literal escapes to the heap")
					// Don't double-report the inner literal.
					return false
				}
			}
		case *ast.FuncLit:
			if !stackClosure[n] {
				add(n.Pos(), "closure (captures escape)")
			}
		}
		return true
	})
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	return sites, calls
}

// coldBlock reports whether the block ends on a cold exit: a panic, or
// a return in a function whose signature can carry an error out.
func coldBlock(pass *analysis.Pass, blk *ast.BlockStmt, returnsError bool) bool {
	if len(blk.List) == 0 {
		return false
	}
	return coldStmt(pass, blk.List[len(blk.List)-1], returnsError)
}

func coldStmt(pass *analysis.Pass, st ast.Stmt, returnsError bool) bool {
	switch st := st.(type) {
	case *ast.ReturnStmt:
		return returnsError
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			return analysis.BuiltinNameOf(pass.TypesInfo, call.Fun) == "panic"
		}
	}
	return false
}

// boxesVariadic reports whether the call builds an implicit slice for
// a variadic parameter (any element type — the slice itself is the
// allocation).
func boxesVariadic(pass *analysis.Pass, call *ast.CallExpr) bool {
	if call.Ellipsis.IsValid() {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || !sig.Variadic() {
		return false
	}
	return len(call.Args) >= sig.Params().Len()
}

func isUntypedNil(tv types.TypeAndValue) bool {
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// litKind classifies a composite literal: map and slice literals
// allocate, array and by-value struct literals do not.
func litKind(pass *analysis.Pass, lit *ast.CompositeLit) (string, bool) {
	tv, ok := pass.TypesInfo.Types[lit]
	if ok && tv.Type != nil {
		switch tv.Type.Underlying().(type) {
		case *types.Map:
			return "map literal", true
		case *types.Slice:
			return "slice literal (backing array)", true
		}
		return "", false
	}
	// Partial info: classify syntactically.
	switch t := lit.Type.(type) {
	case *ast.MapType:
		return "map literal", true
	case *ast.ArrayType:
		if t.Len == nil {
			return "slice literal (backing array)", true
		}
	}
	return "", false
}
