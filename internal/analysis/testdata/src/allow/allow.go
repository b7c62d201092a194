// Package allow exercises the one form of the detlint:allow directive,
// trailing or on the line above, a directive naming a registered pass
// that is not part of the current invocation, and the shapes that
// suppress nothing: name lists, block comments and the malformed
// directives that are themselves findings.
package allow

func boom() {}

func trailing() {
	boom() //detlint:allow allowtest -- trailing same-line form
}

func lineAbove() {
	//detlint:allow allowtest -- annotation-above form
	boom()
}

// A directive names one analyzer: a list, split on commas or spaces,
// reads as one unknown name and suppresses nothing.
func multiComma() {
	//detlint:allow maporder,allowtest -- comma-separated name list // want `detlint:allow names unknown analyzer maporder,allowtest$`
	boom() // want `boom called`
}

func multiSpace() {
	//detlint:allow maporder allowtest -- space-separated name list // want `detlint:allow names unknown analyzer maporder allowtest$`
	boom() // want `boom called`
}

// A block comment is no directive at all.
func blockForm() {
	/*detlint:allow allowtest -- block-comment form */
	boom() // want `boom called`
}

func blockMultiLine() {
	/*detlint:allow allowtest --
	a block comment spanning lines is no directive either */
	boom() // want `boom called`
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
	//detlint:allow nodeterm -- a name from before entropy // want `unknown analyzer nodeterm$`
	//detlint:allow strayrng -- a name from before entropy // want `unknown analyzer strayrng$`
	//detlint:allow goentropy -- a name from before entropy // want `unknown analyzer goentropy$`
	boom() // want `boom called`
}
