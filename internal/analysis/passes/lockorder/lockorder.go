// Package lockorder enforces a consistent mutex acquisition order
// across the packages in Config.LockScope. The run keeps one graph
// (Pass.Shared): every analyzed function's lock operations and calls, so
// a callee's acquisitions count against the locks its caller holds, and
// the first order edge "A held while B acquired" of every pair. A
// package reports a conflict when one of its own edges opposes an edge
// in the graph: its own, or one added by a package analyzed before it
// (every dependency is). That is where cross-package inversions become
// visible, since holding a lock across a call into another package is
// exactly the importing side's doing.
//
// Lock identity is structural: a package-level mutex variable is
// "pkg.name", a mutex struct field is "pkg.Type.field". Function-local
// mutexes have no cross-function identity and are ignored. A deferred
// Unlock releases nothing during simulation — the lock is held to the
// end of the function, which is the pattern's meaning. A block that
// ends in return leaves the path after it alone: the held set after
// `if dup { mu.Unlock(); return }` is the one before it.
//
// Functions and calls are keyed by flat names:
//
//	pkgpath.FuncName         top-level function
//	pkgpath.Recv.Name        method (pointer markers stripped)
//
// Pointer receivers are stripped because Go forbids declaring the same
// method name on both T and *T, so the short form is unambiguous.
package lockorder

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"

	"repro/internal/analysis"
)

var Analyzer = analysis.Register(&analysis.Analyzer{
	Name: "lockorder",
	Doc: "flag pairs of mutexes acquired in opposite orders anywhere across the " +
		"LockScope packages, following calls through the run's shared summaries",
	Run: run,
})

// graph is the run's lock-order state, shared by every package.
type graph struct {
	// funcs holds every analyzed function's lock operations and calls,
	// by function key.
	funcs map[string][]item
	// edges holds, for each ordered pair (held, acquired), the first
	// edge the run found.
	edges map[[2]string]edge
}

// An edge records where its pair's second lock was acquired while the
// first was held.
type edge struct {
	fn  string // function whose body created the edge
	pos token.Pos
	via string // callee that acquires the lock, for indirect edges
}

// item is one simulation step: a lock op or a call, in source order,
// or the bounds of a block that ends in return.
type item struct {
	kind byte // 'l' lock, 'u' unlock, 'c' call, 's' save, 'r' restore
	name string
	pos  token.Pos
}

func run(pass *analysis.Pass) error {
	if !analysis.Match(pass.Config.LockScope, pass.PkgPath) {
		return nil
	}
	g := pass.Shared(func() any {
		return &graph{funcs: make(map[string][]item), edges: make(map[[2]string]edge)}
	}).(*graph)

	own := make(map[string][]item)
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			// Declarations without bodies (assembly stubs) have nothing
			// to simulate.
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				own[funcKey(pass.TypesInfo.Defs[fd.Name].(*types.Func))] = collectItems(pass, fd)
			}
		}
	}
	maps.Copy(g.funcs, own)
	acq := &acquirer{funcs: g.funcs, memo: make(map[string][]string), visiting: make(map[string]bool)}

	// Simulate each local function; found keeps this package's first
	// edge of each pair, in key order, then source order.
	found := make(map[[2]string]edge)
	for _, fnKey := range slices.Sorted(maps.Keys(own)) {
		var held []string    // held locks, acquisition order
		var saved [][]string // held at the entry of each open returning block
		addEdge := func(to string, pos token.Pos, via string) {
			for _, from := range held {
				if _, ok := found[[2]string{from, to}]; from != to && !ok {
					found[[2]string{from, to}] = edge{fnKey, pos, via}
				}
			}
		}
		for _, it := range own[fnKey] {
			switch it.kind {
			case 's':
				saved = append(saved, slices.Clone(held))
			case 'r':
				held, saved = saved[len(saved)-1], saved[:len(saved)-1]
			case 'l':
				if pass.Allowed(it.pos) {
					continue
				}
				addEdge(it.name, it.pos, "")
				if !slices.Contains(held, it.name) {
					held = append(held, it.name)
				}
			case 'u':
				if i := slices.Index(held, it.name); i >= 0 {
					held = slices.Delete(held, i, i+1)
				}
			case 'c':
				if len(held) == 0 || pass.Allowed(it.pos) {
					continue
				}
				for _, to := range acq.of(it.name) {
					addEdge(to, it.pos, it.name)
				}
			}
		}
	}

	// An own edge opposed by an edge in view is a finding, reported at
	// its first site here. An earlier package's edge is cited before
	// this package's own.
	pairs := slices.SortedFunc(maps.Keys(found), func(a, b [2]string) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for _, pair := range pairs {
		e := found[pair]
		rev, ok := g.edges[[2]string{pair[1], pair[0]}]
		if !ok {
			rev, ok = found[[2]string{pair[1], pair[0]}]
		}
		if !ok {
			continue
		}
		if e.via != "" {
			pass.Reportf(e.pos, "call to %s acquires %s while holding %s, but %s (%s) acquires them in the opposite order",
				e.via, pair[1], pair[0], rev.fn, pass.Fset.Position(rev.pos))
		} else {
			pass.Reportf(e.pos, "acquires %s while holding %s, but %s (%s) acquires them in the opposite order",
				pair[1], pair[0], rev.fn, pass.Fset.Position(rev.pos))
		}
	}
	for _, pair := range pairs {
		if _, ok := g.edges[pair]; !ok {
			g.edges[pair] = found[pair]
		}
	}
	return nil
}

// acquirer computes the set of locks a function acquires transitively,
// memoized and cycle-safe over the run's summaries.
type acquirer struct {
	funcs    map[string][]item
	memo     map[string][]string
	visiting map[string]bool
}

func (a *acquirer) of(key string) []string {
	if locks, ok := a.memo[key]; ok {
		return locks
	}
	if a.visiting[key] {
		return nil
	}
	a.visiting[key] = true
	set := make(map[string]bool)
	for _, it := range a.funcs[key] {
		switch it.kind {
		case 'l':
			set[it.name] = true
		case 'c':
			for _, l := range a.of(it.name) {
				set[l] = true
			}
		}
	}
	delete(a.visiting, key)
	locks := slices.Sorted(maps.Keys(set))
	a.memo[key] = locks
	return locks
}

// collectItems walks one function and returns its lock operations and
// calls in source order. Deferred Unlocks are dropped — the lock stays
// held to function end — and deferred other calls are treated as calls
// at the defer site, which is conservative in the right direction. A
// block that ends in return is bracketed by a save and a restore of the
// held set.
func collectItems(pass *analysis.Pass, fd *ast.FuncDecl) []item {
	var items []item
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			if k := len(n.List); k > 0 {
				if _, ok := n.List[k-1].(*ast.ReturnStmt); ok {
					items = append(items, item{'s', "", n.Pos()}, item{'r', "", n.End()})
				}
			}
		case *ast.DeferStmt:
			if kind, _, ok := mutexOp(pass, n.Call); ok && (kind == "Unlock" || kind == "RUnlock") {
				return false // held to end of function
			}
			return true
		case *ast.CallExpr:
			if kind, lock, ok := mutexOp(pass, n); ok {
				switch kind {
				case "Lock", "RLock":
					items = append(items, item{'l', lock, n.Pos()})
				case "Unlock", "RUnlock":
					items = append(items, item{'u', lock, n.Pos()})
				}
				return true
			}
			if key, ok := calleeKey(pass.TypesInfo, n); ok {
				items = append(items, item{'c', key, n.Pos()})
			}
		}
		return true
	})
	sort.SliceStable(items, func(i, j int) bool { return items[i].pos < items[j].pos })
	return items
}

// mutexOp classifies a call as a mutex method invocation and resolves
// the lock's structural identity. ok is false for ordinary calls and
// for locks with no cross-function identity (locals).
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (kind, lock string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !isMutexType(sig.Recv().Type()) {
		return "", "", false
	}
	key, found := lockKey(pass, sel.X)
	if !found {
		return "", "", false
	}
	return sel.Sel.Name, key, true
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	switch n.Obj().Name() {
	case "Mutex", "RWMutex":
		return true
	}
	return false
}

// lockKey gives a mutex expression its structural identity.
func lockKey(pass *analysis.Pass, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok && v.Pkg() != nil && pkgLevel(v) {
			return v.Pkg().Path() + "." + v.Name(), true
		}
	case *ast.SelectorExpr:
		if key, ok := fieldKey(pass.TypesInfo, e); ok {
			return key, true
		}
		// Package-qualified variable: pkg.Mu.
		if v, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && pkgLevel(v) {
			return v.Pkg().Path() + "." + v.Name(), true
		}
	}
	return "", false
}

func pkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// funcKey returns the key of a resolved function object.
// The universe's error.Error has no package.
func funcKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if name := namedRecvName(recv.Type()); name != "" {
			return pkg + "." + name + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

func namedRecvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// calleeKey resolves a call's static callee to its key. ok is false for
// builtins, conversions and function-typed values. An interface method
// stays resolvable: the key names the interface method, which is as
// precise as a static summary gets.
func calleeKey(info *types.Info, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if sub, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			id = sub
		} else if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return funcKey(fn), true
	}
	return "", false
}

// fieldKey resolves a selector expression to a struct-field key
// (pkg.Type.Field), or ok=false when the selector is not a field access
// on a named struct type.
func fieldKey(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	name := namedRecvName(s.Recv())
	if name == "" {
		return "", false
	}
	return s.Obj().Pkg().Path() + "." + name + "." + s.Obj().Name(), true
}
