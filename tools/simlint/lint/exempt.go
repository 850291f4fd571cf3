package lint

// The exemption grammar. A finding is suppressed by a comment of the
// form
//
//	//simlint:<kind>exempt <reason>
//
// placed either on the flagged line itself (trailing comment) or on the
// line directly above it (typically the doc comment's last line). The
// reason is mandatory: an exemption is a reviewed claim that the
// invariant holds for a different reason, and that reason must be
// written down where the next reader will look. A reasonless or
// unknown-kind simlint: comment is itself a diagnostic.
//
// Kinds: snapexempt (snapcover), enumexempt (enumtotal), hookexempt
// (hookpair).

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

// ExemptKinds are the recognized exemption comment kinds, by the
// analyzer that consumes each.
var ExemptKinds = map[string]string{
	"snapexempt": "snapcover",
	"enumexempt": "enumtotal",
	"hookexempt": "hookpair",
}

var exemptRe = regexp.MustCompile(`^//simlint:([a-z]+)[ \t]*(.*)$`)

// exemption is one parsed //simlint:...exempt comment.
type exemption struct {
	pos    token.Pos
	kind   string // "snapexempt", ...
	reason string
}

// ParseExemptComment parses a comment's text. It returns ok=false for
// comments that are not simlint: directives at all.
func ParseExemptComment(text string) (kind, reason string, ok bool) {
	m := exemptRe.FindStringSubmatch(text)
	if m == nil {
		return "", "", false
	}
	return m[1], strings.TrimSpace(m[2]), true
}

// exemptionsFor collects the unit's exemptions of one kind, keyed by
// "file:line" for both the comment's own line and the line below it
// (so a doc-comment exemption covers the declaration it documents).
// Malformed exemptions of this kind — a missing reason — are reported
// as diagnostics by the consuming analyzer.
func exemptionsFor(u *Unit, kind string, report func(token.Pos, string, ...interface{})) map[string]exemption {
	out := make(map[string]exemption)
	for _, f := range u.SourceFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				k, reason, ok := ParseExemptComment(c.Text)
				if !ok || k != kind {
					continue
				}
				if reason == "" {
					report(c.Pos(),
						"exemption //simlint:%s is missing its mandatory reason; write why the invariant holds anyway",
						kind)
					continue
				}
				pos := u.Fset.Position(c.Pos())
				e := exemption{pos: c.Pos(), kind: kind, reason: reason}
				out[lineKey(pos.Filename, pos.Line)] = e
				out[lineKey(pos.Filename, pos.Line+1)] = e
			}
		}
	}
	return out
}

// exempted reports whether the node at pos carries a kind exemption:
// one parsed from its own line or the line directly above (the map
// already indexes each comment under both lines).
func exempted(u *Unit, ex map[string]exemption, pos token.Pos) bool {
	p := u.Fset.Position(pos)
	_, ok := ex[lineKey(p.Filename, p.Line)]
	return ok
}

func lineKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

// checkUnknownExemptKinds flags simlint: comments whose kind is not in
// the grammar (a typo like //simlint:snapexmpt silently disables
// nothing — it must be loud). Run by the determinism analyzer, the
// base analyzer of every gate, so the check fires exactly once per
// unit.
func checkUnknownExemptKinds(u *Unit, report func(token.Pos, string, ...interface{})) {
	for _, f := range u.SourceFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				k, _, ok := ParseExemptComment(c.Text)
				if !ok {
					continue
				}
				if _, known := ExemptKinds[k]; !known {
					report(c.Pos(),
						"unknown simlint directive //simlint:%s; recognized kinds: snapexempt, enumexempt, hookexempt",
						k)
				}
			}
		}
	}
}

// CollectFileExemptions parses every simlint: directive in a file
// without type information — the live-tree meta-test walks the whole
// repository this way to assert all exemption comments parse and cite
// a reason.
func CollectFileExemptions(f *ast.File) (good, bad []*ast.Comment) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			k, reason, ok := ParseExemptComment(c.Text)
			if !ok {
				continue
			}
			if _, known := ExemptKinds[k]; known && reason != "" {
				good = append(good, c)
			} else {
				bad = append(bad, c)
			}
		}
	}
	return good, bad
}
