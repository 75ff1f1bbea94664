// Package analysis is a dependency-free re-implementation of the
// golang.org/x/tools/go/analysis API surface rackvet needs: an Analyzer
// is a named check with a Run function over one type-checked package
// (a Pass), reporting position-anchored Diagnostics.
//
// The container this repository builds in has no module proxy access, so
// vendoring x/tools is not an option; everything here rests on the
// standard library only (go/ast, go/types, go/importer) plus `go list
// -export` for dependency resolution. The shapes mirror x/tools closely
// enough that migrating to the real framework later is mechanical.
//
// Three drivers execute analyzers:
//
//   - Load + RunAnalyzers: standalone mode (`rackvet ./...`), used by CI.
//   - RunUnit: the cmd/go vet action protocol (`go vet -vettool=rackvet`).
//   - analysistest.Run: golden `// want` fixture suites under testdata/.
//
// # Directives
//
// Analyzers offer narrow, per-line escape hatches as comment directives
// of the form `//rackvet:<name> <rationale>`, attached to the source
// line they appear on or the line directly below (so both end-of-line
// and own-line placement work):
//
//	//rackvet:commutative per-vSSD reservations are independent; max commutes
//	for id, dur := range busyByVSSD { ... }
//
// The rationale text is free-form but REQUIRED: the directive asserts a
// human checked an invariant the machine cannot, and the rationale is
// where that proof lives. Analyzers that honor a directive call
// Pass.CheckDirectiveRationales to report bare occurrences.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in reports and directives.
	Name string
	// Doc is the analyzer's help text; the first line is its summary.
	Doc string
	// Applies reports whether the analyzer inspects the package with
	// the given import path at all. Drivers skip packages (and whole
	// dependency subtrees, in vettool mode) where no analyzer applies.
	Applies func(pkgPath string) bool
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each diagnostic as it is found.
	Report func(Diagnostic)

	// directives maps file name -> line -> directive names present.
	directives map[string]map[int][]string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. The simulator
// invariants bind production simulation code; tests may use wall clocks,
// goroutines, and unordered iteration freely.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Directive reports whether a `//rackvet:<name>` directive is attached
// to the line holding pos: on the same line (end-of-line placement) or
// the line directly above (own-line placement).
func (p *Pass) Directive(pos token.Pos, name string) bool {
	if p.directives == nil {
		p.directives = map[string]map[int][]string{}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//rackvet:")
					if !ok {
						continue
					}
					dn := rest
					if i := strings.IndexAny(rest, " \t"); i >= 0 {
						dn = rest[:i]
					}
					cp := p.Fset.Position(c.Pos())
					byLine := p.directives[cp.Filename]
					if byLine == nil {
						byLine = map[int][]string{}
						p.directives[cp.Filename] = byLine
					}
					byLine[cp.Line] = append(byLine[cp.Line], dn)
				}
			}
		}
	}
	at := p.Fset.Position(pos)
	byLine := p.directives[at.Filename]
	for _, ln := range []int{at.Line, at.Line - 1} {
		for _, dn := range byLine[ln] {
			if dn == name {
				return true
			}
		}
	}
	return false
}

// CheckDirectiveRationales reports every `//rackvet:<name>` directive in
// the pass's non-test files that carries no rationale after the
// directive word. A directive is a human assertion that an invariant
// holds where the machine cannot prove it; a bare directive is an
// unjustified suppression. Files are walked in declaration order, so
// reports are deterministic.
func (p *Pass) CheckDirectiveRationales(name string) {
	for _, f := range p.Files {
		if p.InTestFile(f.Pos()) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//rackvet:")
				if !ok {
					continue
				}
				dn, rationale := rest, ""
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					dn, rationale = rest[:i], strings.TrimSpace(rest[i+1:])
				}
				// An analysistest `// want` expectation is fixture
				// metadata, not a rationale.
				if i := strings.Index(rationale, "// want "); i >= 0 {
					rationale = strings.TrimSpace(rationale[:i])
				}
				if dn != name || rationale != "" {
					continue
				}
				p.Reportf(c.Pos(),
					"bare //rackvet:%s directive: state the rationale that justifies the exemption",
					name)
			}
		}
	}
}

// InWorkerPoolFile reports whether pos lies in the simulator's worker
// pool — internal/sim's shardrun.go, the single file sanctioned to
// start goroutines (sim.Do's workers, which run ShardGroup windows and
// core.NewRack's per-server and per-volume set-up).
func (p *Pass) InWorkerPoolFile(pos token.Pos) bool {
	if !PkgPathIs(p.Pkg, "rackblox/internal/sim") {
		return false
	}
	name := p.Fset.Position(pos).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name == "shardrun.go"
}

// Callee resolves a call expression to the *types.Func it invokes
// (a declared function or method), or nil for calls through function
// values, conversions, and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// ReceiverNamed returns the named type of fn's receiver (through one
// pointer indirection), or nil for plain functions.
func ReceiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// PkgPathIs reports whether pkg (possibly nil) has exactly the given
// import path, or — so testdata fixture universes and future module
// renames behave identically — ends with "/" + path's suffix after the
// module name. In this module the paths compared are always of the form
// "rackblox/internal/...".
func PkgPathIs(pkg *types.Package, path string) bool {
	if pkg == nil {
		return false
	}
	got := pkg.Path()
	if got == path {
		return true
	}
	if i := strings.Index(path, "/"); i >= 0 {
		return strings.HasSuffix(got, path[i:]) && got != path[i+1:]
	}
	return false
}

// EngineMethod returns the method name if call invokes a method on the
// simulation engine type (sim.Engine), and "" otherwise.
func EngineMethod(info *types.Info, call *ast.CallExpr) string {
	if typ, m := SimMethod(info, call); typ == "Engine" {
		return m
	}
	return ""
}

// SimMethod returns the receiver type and method name if call invokes a
// method of a named type declared in the simulation engine package
// (rackblox/internal/sim), and empty strings otherwise.
func SimMethod(info *types.Info, call *ast.CallExpr) (typ, method string) {
	fn := Callee(info, call)
	if fn == nil {
		return "", ""
	}
	named := ReceiverNamed(fn)
	if named == nil || !PkgPathIs(named.Obj().Pkg(), "rackblox/internal/sim") {
		return "", ""
	}
	return named.Obj().Name(), fn.Name()
}

// SimFunc returns the function name if call invokes a package-level
// function of the simulation engine package, and "" otherwise.
func SimFunc(info *types.Info, call *ast.CallExpr) string {
	fn := Callee(info, call)
	if fn == nil || ReceiverNamed(fn) != nil || !PkgPathIs(fn.Pkg(), "rackblox/internal/sim") {
		return ""
	}
	return fn.Name()
}

// SortDiagnostics orders diagnostics by file position for stable output.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}
