// Package lockorder enforces a consistent mutex acquisition order
// across the packages in Config.LockScope. Each package exports two
// summaries as facts: per-function lock operations and call edges (so
// a callee's acquisitions count against the locks its caller holds),
// and the resulting order edges "A held while B acquired". A package
// reports a conflict when one of its own edges opposes any edge in
// view: its own, or one exported by a package analyzed before it
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
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/dataflow"
)

var Analyzer = analysis.Register(&analysis.Analyzer{
	Name: "lockorder",
	Doc: "flag pairs of mutexes acquired in opposite orders anywhere across the " +
		"LockScope packages, following calls through exported summaries",
	Run: run,
})

type fact struct {
	Funcs map[string]funcSummary `json:"funcs"`
	Edges []edge                 `json:"edges,omitempty"`
}

type funcSummary struct {
	Locks []string `json:"locks,omitempty"` // locks acquired directly, deduped
	Calls []string `json:"calls,omitempty"`
}

// An edge records "From was held when To was acquired".
type edge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Func string `json:"func"` // function whose body created the edge
	Posn string `json:"posn"`
	Via  string `json:"via,omitempty"` // callee that acquires To, for indirect edges
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

	funcs := dataflow.Functions(pass)
	items := make(map[string][]item, len(funcs))
	out := fact{Funcs: make(map[string]funcSummary, len(funcs))}
	for _, fn := range funcs {
		its := collectItems(pass, fn.Decl)
		items[fn.Key] = its
		sum := funcSummary{}
		seenL, seenC := make(map[string]bool), make(map[string]bool)
		for _, it := range its {
			switch it.kind {
			case 'l':
				if !seenL[it.name] {
					seenL[it.name] = true
					sum.Locks = append(sum.Locks, it.name)
				}
			case 'c':
				if !seenC[it.name] {
					seenC[it.name] = true
					sum.Calls = append(sum.Calls, it.name)
				}
			}
		}
		sort.Strings(sum.Locks)
		sort.Strings(sum.Calls)
		out.Funcs[fn.Key] = sum
	}

	// Merge dependency summaries for the transitive-acquisition closure
	// and collect their edges.
	merged := make(map[string]funcSummary)
	var depEdges []edge
	for _, dep := range pass.FactPackages() {
		var f fact
		if ok, err := pass.ImportFact(dep, &f); err != nil {
			return err
		} else if !ok {
			continue
		}
		for key, sum := range f.Funcs {
			merged[key] = sum
		}
		depEdges = append(depEdges, f.Edges...)
	}
	for key, sum := range out.Funcs {
		merged[key] = sum
	}
	acq := &acquirer{funcs: merged, memo: make(map[string][]string)}

	// Simulate each local function to produce this package's edges.
	var ownEdges []edge
	type witness struct {
		pos token.Pos
		via string
	}
	witnesses := make(map[[2]string]witness)
	keys := make([]string, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, fnKey := range keys {
		var held []string    // held locks, acquisition order
		var saved [][]string // held at the entry of each open returning block
		addEdge := func(to string, pos token.Pos, via string) {
			for _, from := range held {
				if from == to {
					continue
				}
				e := edge{From: from, To: to, Func: fnKey, Posn: dataflow.Posn(pass.Fset, pos), Via: via}
				ownEdges = append(ownEdges, e)
				if _, ok := witnesses[[2]string{from, to}]; !ok {
					witnesses[[2]string{from, to}] = witness{pos, via}
				}
			}
		}
		for _, it := range items[fnKey] {
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
				if len(held) == 0 {
					continue
				}
				if pass.Allowed(it.pos) {
					continue
				}
				for _, to := range acq.of(it.name) {
					addEdge(to, it.pos, it.name)
				}
			}
		}
	}
	out.Edges = dedupeEdges(ownEdges)
	if err := pass.ExportFact(&out); err != nil {
		return err
	}

	// An own edge conflicting with any visible opposite edge is a
	// finding, reported at the local witness.
	oppose := make(map[[2]string]edge)
	for _, e := range append(depEdges, out.Edges...) {
		key := [2]string{e.From, e.To}
		if _, ok := oppose[key]; !ok {
			oppose[key] = e
		}
	}
	reported := make(map[[2]string]bool)
	for _, e := range out.Edges {
		rev, ok := oppose[[2]string{e.To, e.From}]
		if !ok || reported[[2]string{e.From, e.To}] {
			continue
		}
		reported[[2]string{e.From, e.To}] = true
		w := witnesses[[2]string{e.From, e.To}]
		if w.via != "" {
			pass.Reportf(w.pos, "call to %s acquires %s while holding %s, but %s (%s) acquires them in the opposite order",
				w.via, e.To, e.From, rev.Func, rev.Posn)
		} else {
			pass.Reportf(w.pos, "acquires %s while holding %s, but %s (%s) acquires them in the opposite order",
				e.To, e.From, rev.Func, rev.Posn)
		}
	}
	return nil
}

func dedupeEdges(edges []edge) []edge {
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Posn < b.Posn
	})
	var out []edge
	seen := make(map[[2]string]bool)
	for _, e := range edges {
		key := [2]string{e.From, e.To}
		if !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	return out
}

// acquirer computes the set of locks a function acquires transitively,
// memoized and cycle-safe over the merged summaries.
type acquirer struct {
	funcs   map[string]funcSummary
	memo    map[string][]string
	visitng map[string]bool
}

func (a *acquirer) of(key string) []string {
	if locks, ok := a.memo[key]; ok {
		return locks
	}
	if a.visitng == nil {
		a.visitng = make(map[string]bool)
	}
	if a.visitng[key] {
		return nil
	}
	a.visitng[key] = true
	set := make(map[string]bool)
	sum := a.funcs[key]
	for _, l := range sum.Locks {
		set[l] = true
	}
	for _, c := range sum.Calls {
		for _, l := range a.of(c) {
			set[l] = true
		}
	}
	delete(a.visitng, key)
	locks := make([]string, 0, len(set))
	for l := range set {
		locks = append(locks, l)
	}
	sort.Strings(locks)
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
			if key, ok := dataflow.CalleeKey(pass, n); ok {
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
		if key, ok := dataflow.FieldKey(pass.TypesInfo, e); ok {
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
