package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// The //repro: directive grammar. Three kinds exist:
//
//	//repro:allow <analyzer> <reason...>   suppress one analyzer's findings
//	                                       on this line (trailing comment) or
//	                                       the next line (standalone comment)
//	//repro:hotpath                        mark a function (doc comment) for
//	                                       the hotpath analyzer
//	//repro:reset-skip <reason...>         waive one struct field (doc or
//	                                       trailing comment) from the
//	                                       resetcomplete analyzer
//
// Unknown kinds, unknown analyzer names, missing reasons, misplaced
// annotations, allows that no longer suppress anything and hotpath marks
// on functions the hotpath analyzer audits anyway are all reported by the
// suite itself.
const (
	directivePrefix = "//repro:"
	kindAllow       = "allow"
	kindHotpath     = "hotpath"
	kindResetSkip   = "reset-skip"
)

// directive is one parsed //repro: comment.
type directive struct {
	pos  token.Pos
	kind string
	args string // text after the kind, space-trimmed

	// allow fields
	analyzer   string
	reason     string
	targetFile string
	targetLine int

	// used means the directive earned its keep this run: an allow that
	// suppressed a diagnostic, a reset-skip that excused a field its Reset
	// method really does not handle, or a hotpath that put a function in
	// the audit that would otherwise be left out.
	used bool

	// attachment classification (for hotpath / reset-skip placement checks)
	inFuncDoc bool
	onField   bool
	malformed bool
}

type directiveSet struct {
	dirs []*directive
}

// parseDirective splits one comment's text into a directive, or returns nil
// when the comment is not a //repro: comment.
func parseDirective(c *ast.Comment) *directive {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return nil
	}
	rest := c.Text[len(directivePrefix):]
	// A directive owns its comment only up to an embedded "//": line comments
	// run to end of line, so this is what lets a trailing remark (or a test
	// fixture's "// want" expectation) follow the directive.
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = strings.TrimRight(rest[:i], " \t")
	}
	kind := rest
	args := ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		kind, args = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	return &directive{pos: c.Pos(), kind: kind, args: args}
}

// parseDirectives walks every comment of the package, classifies each
// //repro: directive, and resolves the target line of each allow.
func parseDirectives(pkg *Package) *directiveSet {
	set := &directiveSet{}
	for _, f := range pkg.Files {
		// Positions of comments that are a function's doc comment or attach
		// to a struct field, for placement validation.
		funcDoc := map[token.Pos]bool{}
		fieldDoc := map[token.Pos]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				markComments(funcDoc, n.Doc)
			case *ast.Field:
				markComments(fieldDoc, n.Doc)
				markComments(fieldDoc, n.Comment)
			}
			return true
		})

		// Lines that carry code, for trailing-versus-standalone allows. Any
		// syntax node starting on a line before the comment counts.
		codeBefore := func(c *ast.Comment) bool {
			line := pkg.Fset.Position(c.Pos()).Line
			found := false
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil || found {
					return false
				}
				if _, isComment := n.(*ast.Comment); isComment {
					return false
				}
				if _, isGroup := n.(*ast.CommentGroup); isGroup {
					return false
				}
				if n.Pos().IsValid() && n.Pos() < c.Pos() && pkg.Fset.Position(n.Pos()).Line == line {
					found = true
					return false
				}
				return true
			})
			return found
		}

		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d := parseDirective(c)
				if d == nil {
					continue
				}
				d.inFuncDoc = funcDoc[c.Pos()]
				d.onField = fieldDoc[c.Pos()]
				if d.kind == kindAllow {
					fields := strings.Fields(d.args)
					if len(fields) > 0 {
						d.analyzer = fields[0]
						d.reason = strings.TrimSpace(d.args[len(fields[0]):])
					}
					posn := pkg.Fset.Position(c.Pos())
					d.targetFile = posn.Filename
					d.targetLine = posn.Line
					if !codeBefore(c) {
						d.targetLine++ // standalone comment guards the next line
					}
				}
				set.dirs = append(set.dirs, d)
			}
		}
	}
	return set
}

func markComments(set map[token.Pos]bool, cg *ast.CommentGroup) {
	if cg == nil {
		return
	}
	for _, c := range cg.List {
		set[c.Pos()] = true
	}
}

// apply filters out diagnostics covered by a well-formed allow directive,
// marking the directives it consumes.
func (s *directiveSet) apply(fset *token.FileSet, diags []Diagnostic) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		suppressed := false
		for _, dir := range s.dirs {
			if dir.kind != kindAllow || dir.analyzer != d.Analyzer || dir.reason == "" {
				continue
			}
			if dir.targetFile == posn.Filename && dir.targetLine == posn.Line {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// problems validates every directive: grammar, placement, and staleness.
// ran is the set of analyzers that executed in this suite run; an allow for
// an analyzer that did not run is never reported as unused.
func (s *directiveSet) problems(fset *token.FileSet, ran map[string]bool) []Diagnostic {
	known := suiteNames()
	var out []Diagnostic
	report := func(d *directive, format string, args ...any) {
		d.malformed = true
		out = append(out, Diagnostic{Pos: d.pos, Analyzer: "reprolint", Message: fmt.Sprintf(format, args...)})
	}
	for _, d := range s.dirs {
		switch d.kind {
		case kindAllow:
			switch {
			case d.analyzer == "":
				report(d, "//repro:allow needs an analyzer name and a reason")
			case !known[d.analyzer]:
				report(d, "//repro:allow names unknown analyzer %q (have %s)", d.analyzer, suiteNameList())
			case d.reason == "":
				report(d, "//repro:allow %s needs a reason", d.analyzer)
			case ran[d.analyzer] && !d.used:
				report(d, "unused //repro:allow %s: no %s finding on the guarded line (stale suppression — delete it)", d.analyzer, d.analyzer)
			}
		case kindHotpath:
			switch {
			case d.args != "":
				report(d, "//repro:hotpath takes no arguments")
			case !d.inFuncDoc:
				report(d, "misplaced //repro:hotpath: it must appear in a function's doc comment")
			case ran["hotpath"] && !d.used:
				report(d, "redundant //repro:hotpath: the function takes a *simkernel.ContProc or is a method of a continuation machine, so hotpath audits it anyway (delete it)")
			}
		case kindResetSkip:
			switch {
			case d.args == "":
				report(d, "//repro:reset-skip needs a reason")
			case !d.onField:
				report(d, "misplaced //repro:reset-skip: it must be attached to a struct field")
			case ran["resetcomplete"] && !d.used:
				report(d, "unused //repro:reset-skip: the field is reset anyway or its type has no Reset method (stale waiver — delete it)")
			}
		default:
			report(d, "unknown //repro: directive %q (have allow, hotpath, reset-skip)", d.kind)
		}
	}
	return out
}

// hotpathDirective returns the position of the //repro:hotpath in fn's doc
// comment, if it carries one (the key the staleness check matches on via
// Pass.MarkDirectiveUsed).
func hotpathDirective(fn *ast.FuncDecl) (token.Pos, bool) {
	if fn.Doc == nil {
		return token.NoPos, false
	}
	for _, c := range fn.Doc.List {
		if d := parseDirective(c); d != nil && d.kind == kindHotpath {
			return d.pos, true
		}
	}
	return token.NoPos, false
}

// resetSkipReason returns the //repro:reset-skip reason attached to a struct
// field, if any, along with the directive comment's position (the key the
// staleness check matches on via Pass.MarkDirectiveUsed).
func resetSkipReason(field *ast.Field) (string, token.Pos, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if d := parseDirective(c); d != nil && d.kind == kindResetSkip && d.args != "" {
				return d.args, d.pos, true
			}
		}
	}
	return "", token.NoPos, false
}
