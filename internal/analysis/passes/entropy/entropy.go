// Package entropy forbids every source of nondeterminism a replay
// cannot reproduce inside the deterministic simulation packages: the
// host clock, random state the checkpoint cannot see, and the
// goroutine scheduler.
//
// Every replay guarantee in this repo (trace Verify, checkpoint
// restore identity, resize/autoscale replay) holds only if the
// simulation path computes from its declared inputs: spec, seed, and
// the virtual clock. Three things smuggle in something else:
//
//   - the wall clock: time.Now and the helpers that read or arm
//     against it (Since, Until, After, Sleep, Tick, timers);
//   - random state outside the one serializable source: math/rand's
//     package-level draws and Seed use the process-global generator,
//     rand.NewSource / new(rand.Rand) / a rand.Rand literal / rand.New
//     over anything but a *farm.RNG hold state the checkpoint manifest
//     cannot persist, and crypto/rand is irreproducible by design. The
//     one sanctioned construction is rand.New over a farm.RNG (or a
//     substream from its Derive), which lets the farm borrow rand.Rand's
//     distribution helpers while the RNG owns the state;
//   - a `go` statement, which lets the runtime scheduler pick an
//     interleaving that can leak into event order, trace bytes or float
//     reduction order.
//
// A site that cannot change observable results — a liveness timeout, a
// rank goroutine whose exchanges are rank-addressed, a cancellation
// watcher — is annotated:
//
//	//detlint:allow entropy -- <why this cannot change the replayed bits>
package entropy

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = analysis.Register(&analysis.Analyzer{
	Name: "entropy",
	Doc: "forbid wall-clock reads, RNG state outside farm.RNG/Derive and go statements " +
		"in deterministic packages; take time from the virtual clock and randomness from a farm.RNG substream",
	Run: run,
})

// ambientTime lists time package functions that read the host clock,
// directly or by arming against it.
var ambientTime = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
}

// ambientRand lists the math/rand{,/v2} package-level draws backed by
// the process-global generator.
var ambientRand = map[string]bool{
	"Int": true, "Intn": true, "IntN": true, "N": true,
	"Int31": true, "Int31n": true, "Int32": true, "Int32N": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Uint": true, "UintN": true, "Uint32": true, "Uint32N": true,
	"Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.Match(pass.Config.Deterministic, pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Go,
					"go statement on the deterministic step/decision path: goroutine scheduling order can leak into results; use the internal/pool worker slabs, or annotate //detlint:allow entropy -- <why this cannot reorder observable events>")
			case *ast.SelectorExpr:
				checkMember(pass, n)
			case *ast.CallExpr:
				checkConstruction(pass, n)
			case *ast.CompositeLit:
				if isRandRand(pass, n.Type) {
					pass.Reportf(n.Pos(),
						"rand.Rand literal holds RNG state outside the checkpoint; draw a substream with farm.RNG.Derive")
				}
			}
			return true
		})
	}
	return nil
}

// checkMember flags any reference to a package member that reads the
// clock, draws from or reseeds a global generator, or creates a source
// the checkpoint cannot serialize.
func checkMember(pass *analysis.Pass, sel *ast.SelectorExpr) {
	path, name, ok := analysis.PkgFuncOf(pass.TypesInfo, sel)
	if !ok {
		return
	}
	switch path {
	case "time":
		if ambientTime[name] {
			pass.Reportf(sel.Pos(),
				"time.%s reads the ambient wall clock; deterministic packages take time from the virtual clock or an explicit argument", name)
		}
	case "math/rand", "math/rand/v2":
		switch {
		case ambientRand[name]:
			pass.Reportf(sel.Pos(),
				"rand.%s draws from the process-global generator; route randomness through the job's farm.RNG substream", name)
		case name == "Seed":
			pass.Reportf(sel.Pos(),
				"rand.Seed reseeds the process-global generator; seed a farm.RNG and pass it explicitly")
		case name == "NewSource" || name == "NewPCG" || name == "NewChaCha8":
			pass.Reportf(sel.Pos(),
				"rand.%s creates a source the checkpoint manifest cannot serialize; derive one with farm.RNG.Derive", name)
		}
	case "crypto/rand":
		pass.Reportf(sel.Pos(),
			"crypto/rand.%s is irreproducible entropy; deterministic packages derive randomness from the seed", name)
	}
}

// checkConstruction flags a rand.Rand built over anything but a
// *farm.RNG: new(rand.Rand), or rand.New over another source.
func checkConstruction(pass *analysis.Pass, call *ast.CallExpr) {
	if analysis.BuiltinNameOf(pass.TypesInfo, call.Fun) == "new" && len(call.Args) == 1 {
		if isRandRand(pass, call.Args[0]) {
			pass.Reportf(call.Pos(),
				"new(rand.Rand) holds RNG state outside the checkpoint; draw a substream with farm.RNG.Derive")
		}
		return
	}
	path, name, ok := analysis.CalleeOf(pass.TypesInfo, call)
	if !ok || (path != "math/rand" && path != "math/rand/v2") || name != "New" {
		return
	}
	if len(call.Args) == 1 && fedByRNG(pass, call.Args[0]) {
		return
	}
	pass.Reportf(call.Pos(),
		"rand.New over a non-RNG source breaks checkpoint round-trips; construct it from farm.NewRNG or Derive")
}

func isRandRand(pass *analysis.Pass, e ast.Expr) bool {
	path, name, ok := analysis.PkgFuncOf(pass.TypesInfo, e)
	return ok && (path == "math/rand" || path == "math/rand/v2") && name == "Rand"
}

// fedByRNG reports whether the expression's static type is *RNG (the
// farm package's serializable source).
func fedByRNG(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if p, okP := t.Underlying().(*types.Pointer); okP {
		t = p.Elem()
	}
	named, okN := t.(*types.Named)
	return okN && named.Obj().Name() == "RNG"
}
