// Package eventlabel implements the rackvet analyzer that makes
// Result.EventsByHandler accounting provably complete, and keeps label
// resolution off the event path.
//
// The engine's per-handler event counters (Engine.ProcessedBy, surfaced
// as Result.EventsByHandler) bucket every event under its schedule-time
// label; events scheduled through the unlabeled At/After variants all
// collapse into the "other" bucket, silently eroding the tail-attribution
// and per-handler breakdowns the observability layer promises. Labels are
// sim.Label handles, declared once per package:
//
//	var labelDeliver = sim.NewLabel("net.deliver")
//
// and passed to Engine.Schedule/ScheduleAfter (ShardGroup.Post across
// shards), so scheduling an event costs no string lookup. In simulation
// packages this check requires that:
//
//   - sim.NewLabel is called at package scope with a constant, non-empty
//     name: a label resolved inside a function body would pay the
//     registry lookup on every call;
//   - no event is scheduled through the unlabeled At/After;
//   - no event is scheduled through the string-named forms (AtNamed,
//     AfterNamed, ShardGroup.Send), which resolve the name on every
//     call and exist for callers outside the simulator.
//
// The sim package's own forwarders, which define those forms on top of
// Schedule, are the one structural exemption. A deliberate exception
// elsewhere can carry a `//rackvet:unlabeled <why>` directive, which the
// golden suite exercises; the real tree has none.
package eventlabel

import (
	"go/ast"
	"go/constant"
	"strings"

	"rackblox/internal/analysis"
)

// Analyzer requires declared labels on every event scheduled in
// simulation packages.
var Analyzer = &analysis.Analyzer{
	Name: "eventlabel",
	Doc: "require package-scope sim.NewLabel handles with Engine.Schedule/ScheduleAfter instead of " +
		"unlabeled or string-labeled scheduling in simulation packages, so EventsByHandler " +
		"accounting stays complete and label lookup stays off the event path",
	Applies: applies,
	Run:     run,
}

func applies(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "rackblox/internal/")
}

// stringForms maps the unlabeled and string-named scheduling methods of
// the sim package, by receiver type, to their label-handle replacement.
var stringForms = map[string]map[string]string{
	"Engine": {
		"At": "Schedule", "After": "ScheduleAfter",
		"AtNamed": "Schedule", "AfterNamed": "ScheduleAfter",
	},
	"ShardGroup": {"Send": "Post"},
}

// simForwarder reports whether decl is one of the sim package's own
// string-form methods — the definitions being enforced, which must
// themselves be allowed to delegate.
func simForwarder(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	if decl == nil || decl.Recv == nil || !analysis.PkgPathIs(pass.Pkg, "rackblox/internal/sim") {
		return false
	}
	for _, forms := range stringForms {
		if _, ok := forms[decl.Name.Name]; ok {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	pass.CheckDirectiveRationales("unlabeled")
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			decl, isFunc := d.(*ast.FuncDecl)
			if isFunc && (decl.Body == nil || simForwarder(pass, decl)) {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if analysis.SimFunc(pass.TypesInfo, call) == "NewLabel" {
					checkNewLabel(pass, call, isFunc)
					return true
				}
				typ, m := analysis.SimMethod(pass.TypesInfo, call)
				use, ok := stringForms[typ][m]
				if !ok || pass.Directive(call.Pos(), "unlabeled") {
					return true
				}
				if m == "At" || m == "After" {
					pass.Reportf(call.Pos(),
						"unlabeled Engine.%s call: declare a sim.Label with NewLabel and use %s so "+
							"EventsByHandler accounting stays complete (//rackvet:unlabeled to opt out)",
						m, use)
					return true
				}
				pass.Reportf(call.Pos(),
					"%s.%s resolves its label by name on every call: declare a sim.Label with "+
						"NewLabel at package scope and use %s (//rackvet:unlabeled to opt out)",
					typ, m, use)
				return true
			})
		}
	}
	return nil
}

// checkNewLabel requires a constant, non-empty label name and a call at
// package scope (inFunc is false there).
func checkNewLabel(pass *analysis.Pass, call *ast.CallExpr, inFunc bool) {
	if inFunc {
		pass.Reportf(call.Pos(),
			"sim.NewLabel inside a function resolves the label on every call: declare it once "+
				"in a package-level var")
	}
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(call.Pos(), "sim.NewLabel needs a constant label name, so the bucket is stable across runs")
		return
	}
	if constant.StringVal(tv.Value) == "" {
		pass.Reportf(call.Pos(), "sim.NewLabel with an empty name: give the handler a stable label")
	}
}
