// Package allow exercises every form of the detlint:allow directive:
// trailing vs line-above placement, multi-name lists split on commas or
// spaces, block comments (single- and multi-line), directives naming a
// registered pass that is not part of the current invocation, and the
// malformed shapes that are themselves findings.
package allow

func boom() {}

func trailing() {
	boom() //detlint:allow allowtest -- trailing same-line form
}

func lineAbove() {
	//detlint:allow allowtest -- annotation-above form
	boom()
}

func multiComma() {
	//detlint:allow maporder,allowtest -- comma-separated name list
	boom()
}

func multiSpace() {
	//detlint:allow maporder allowtest -- space-separated name list
	boom()
}

func blockForm() {
	/*detlint:allow allowtest -- block-comment form */
	boom()
}

func blockMultiLine() {
	/*detlint:allow allowtest --
	a block directive covers every line it spans and the line
	after its end, so it reaches the statement below */
	boom()
}

// A directive naming a registered pass that is not in the running
// suite suppresses nothing here, but it is not a typo either: no
// unknown-analyzer finding, and the allowtest diagnostic survives.
func otherPass() {
	//detlint:allow maporder -- names a registered pass not running now
	boom() // want `boom called`
}

// A lookalike marker is not a directive at all.
func lookalike() {
	//detlint:allowlist allowtest -- not a directive
	boom() // want `boom called`
}

// A directive without a reason suppresses nothing and is itself a
// finding.
func noReason() {
	//detlint:allow allowtest // want `detlint:allow needs a reason`
	boom() // want `boom called`
}

// A directive without any analyzer name is a finding.
func nameless() {
	//detlint:allow -- a reason with nothing to excuse // want `detlint:allow names no analyzer`
	boom() // want `boom called`
}

// A misspelled analyzer name is loud: a typo would otherwise silently
// suppress nothing forever.
func typo() {
	//detlint:allow allowtst -- typo in the pass name // want `detlint:allow names unknown analyzer allowtst`
	boom() // want `boom called`
}

// The three passes entropy replaced are not registered any more: a
// directive still naming them is reported, not silently obeyed.
func retiredNames() {
	//detlint:allow nodeterm,strayrng,goentropy -- names from before entropy // want `unknown analyzer nodeterm` `unknown analyzer strayrng` `unknown analyzer goentropy`
	boom() // want `boom called`
}
