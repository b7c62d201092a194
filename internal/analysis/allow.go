package analysis

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// The escape hatch. A finding that is understood and deliberate is
// suppressed with a directive comment:
//
//	//detlint:allow entropy -- watcher only forwards ctx cancellation
//
// The grammar is `//detlint:allow <analyzer> -- <reason>`, one analyzer
// in a line comment. The directive covers diagnostics on its own line
// and on the line below, so it works both as a trailing comment and as
// an annotation above the offending statement. A block comment is no
// directive, and a name list reads as one unknown name. The reason
// after `--` is mandatory: an allow without a reason is itself a
// finding, as is one naming an analyzer no pass package has registered
// (a typo would otherwise silently suppress nothing forever). A
// directive naming a registered pass that is not part of the current
// invocation is valid — it suppresses nothing now, but it is not a
// typo.
const allowPrefix = "//detlint:allow"

type allowDirective struct {
	pos    token.Pos
	file   string
	line   int
	name   string
	reason string
}

// allowDirectives parses every directive in the files. Lookalikes such
// as //detlint:allowlist, where the marker is not followed by a space,
// are not directives.
func allowDirectives(fset *token.FileSet, files []*ast.File) []allowDirective {
	var out []allowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok || text != "" && text[0] != ' ' && text[0] != '\t' {
					continue
				}
				// The directive ends at a nested comment marker, so
				// golden-test `// want` expectations can share the line.
				text, _, _ = strings.Cut(text, "//")
				spec, reason, _ := strings.Cut(text, "--")
				posn := fset.Position(c.Slash)
				out = append(out, allowDirective{pos: c.Slash, file: posn.Filename, line: posn.Line,
					name: strings.TrimSpace(spec), reason: strings.TrimSpace(reason)})
			}
		}
	}
	return out
}

// filter drops diagnostics covered by a directive naming the analyzer
// with a reason. Malformed directives suppress nothing.
func filter(fset *token.FileSet, allows []allowDirective, analyzer string, diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, diag := range diags {
		posn := fset.Position(diag.Pos)
		suppressed := false
		for _, d := range allows {
			if d.name == analyzer && d.reason != "" && d.file == posn.Filename &&
				(d.line == posn.Line || d.line == posn.Line-1) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, diag)
		}
	}
	return out
}

// validate reports a directive that names no analyzer, names one
// neither registered nor in the running suite (a directive naming a
// registered pass that merely is not part of this invocation is fine),
// or carries no reason. The findings carry the pseudo-analyzer name
// "detlint" so they are never themselves suppressible.
func validate(allows []allowDirective, suite []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, d := range allows {
		var msg string
		switch {
		case d.name == "":
			msg = "names no analyzer; write //detlint:allow <analyzer> -- <reason>"
		case !registry[d.name] && !slices.ContainsFunc(suite, func(a *Analyzer) bool { return a.Name == d.name }):
			msg = "names unknown analyzer " + d.name
		case d.reason == "":
			msg = "needs a reason; write //detlint:allow " + d.name + " -- <reason>"
		default:
			continue
		}
		out = append(out, Diagnostic{Pos: d.pos, Analyzer: "detlint", Message: "detlint:allow " + msg})
	}
	return out
}
