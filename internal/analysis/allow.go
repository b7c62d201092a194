package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The escape hatch. A finding that is understood and deliberate is
// suppressed with a directive comment:
//
//	//detlint:allow entropy -- watcher only forwards ctx cancellation
//
// The grammar is `//detlint:allow name[,name...] -- reason`, in a line
// comment or a `/*detlint:allow ...*/` block comment. The directive
// covers diagnostics on every line it spans and on the line below its
// end, so it works both as a trailing comment and as an annotation
// above the offending statement. The reason after `--` is mandatory:
// an allow without a reason is itself a finding, as is one naming an
// analyzer no pass package has registered (a typo would otherwise
// silently suppress nothing forever). A directive naming a registered
// pass that is not part of the current invocation is valid — it
// suppresses nothing now, but it is not a typo.
const (
	allowPrefix      = "//detlint:allow"
	allowBlockPrefix = "/*detlint:allow"
)

type allowDirective struct {
	pos    token.Pos
	file   string
	line   int
	names  []string
	reason string
	// raw keeps the text after the prefix for malformed-directive
	// diagnostics.
	raw string
}

type allowIndex struct {
	// byLine maps file -> line -> directives whose scope includes that
	// line (each directive is indexed at its own line and the next).
	byLine     map[string]map[int][]*allowDirective
	directives []*allowDirective
}

func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	idx := &allowIndex{byLine: make(map[string]map[int][]*allowDirective)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := directiveText(c.Text)
				if !ok {
					continue
				}
				d := parseAllow(c, text)
				posn := fset.Position(c.Slash)
				end := fset.Position(c.End())
				d.file, d.line = posn.Filename, posn.Line
				idx.directives = append(idx.directives, d)
				m := idx.byLine[d.file]
				if m == nil {
					m = make(map[int][]*allowDirective)
					idx.byLine[d.file] = m
				}
				// Cover every line the comment spans plus the one after
				// its end: a multi-line block directive above a statement
				// still reaches it.
				for line := d.line; line <= end.Line+1; line++ {
					m[line] = append(m[line], d)
				}
			}
		}
	}
	return idx
}

// directiveText extracts the directive body from a comment: the text
// after the allow marker in a line comment, or inside a block comment
// (with the closing */ stripped). ok is false for non-directives,
// including lookalikes such as //detlint:allowlist where the marker is
// not followed by a name boundary.
func directiveText(text string) (string, bool) {
	var rest string
	switch {
	case strings.HasPrefix(text, allowPrefix):
		rest = text[len(allowPrefix):]
	case strings.HasPrefix(text, allowBlockPrefix):
		rest = strings.TrimSuffix(text[len(allowBlockPrefix):], "*/")
	default:
		return "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' && rest[0] != '\n' {
		return "", false
	}
	return rest, true
}

func parseAllow(c *ast.Comment, text string) *allowDirective {
	// The directive ends at a nested comment marker, so golden-test
	// `// want` expectations can share the line.
	if i := strings.Index(text, "//"); i >= 0 {
		text = text[:i]
	}
	d := &allowDirective{pos: c.Slash, raw: strings.TrimSpace(text)}
	spec := d.raw
	if i := strings.Index(spec, "--"); i >= 0 {
		d.reason = strings.TrimSpace(spec[i+2:])
		spec = spec[:i]
	}
	// Names separate on commas or plain whitespace: both
	// `allow a,b -- r` and `allow a b -- r` read naturally, and the
	// forgiving split keeps a stray space from turning into one bogus
	// compound name that matches nothing and flags as a typo.
	for _, n := range strings.FieldsFunc(spec, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == '\n'
	}) {
		d.names = append(d.names, n)
	}
	return d
}

func (d *allowDirective) covers(analyzer string) bool {
	for _, n := range d.names {
		if n == analyzer {
			return true
		}
	}
	return false
}

// filter drops diagnostics covered by a well-formed directive naming
// the analyzer. Malformed directives (no reason) suppress nothing.
func (idx *allowIndex) filter(fset *token.FileSet, analyzer string, diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, diag := range diags {
		posn := fset.Position(diag.Pos)
		suppressed := false
		for _, d := range idx.byLine[posn.Filename][posn.Line] {
			if d.covers(analyzer) && d.reason != "" {
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

// validate reports directives that carry no reason or name an analyzer
// neither registered nor in the running suite — a directive naming a
// registered pass that merely is not part of this invocation is fine.
// The findings carry the pseudo-analyzer name "detlint" so they are
// never themselves suppressible.
func (idx *allowIndex) validate(suite []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(suite)+len(registry))
	for name := range registry {
		known[name] = true
	}
	for _, a := range suite {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, d := range idx.directives {
		if len(d.names) == 0 {
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "detlint",
				Message: "detlint:allow names no analyzer; write //detlint:allow <analyzer> -- <reason>"})
			continue
		}
		if d.reason == "" {
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "detlint",
				Message: "detlint:allow needs a reason; write //detlint:allow " + strings.Join(d.names, ",") + " -- <reason>"})
		}
		for _, n := range d.names {
			if !known[n] {
				out = append(out, Diagnostic{Pos: d.pos, Analyzer: "detlint",
					Message: "detlint:allow names unknown analyzer " + n})
			}
		}
	}
	return out
}
