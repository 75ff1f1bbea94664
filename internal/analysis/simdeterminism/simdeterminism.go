// Package simdeterminism implements the rackvet analyzer guarding the
// simulator's bit-exact determinism invariant.
//
// The whole experimental methodology rests on runs replaying exactly:
// the replay tests and the wheel-vs-heap differential oracle compare
// Results byte for byte, and the flight recorder's observer-only
// guarantee is stated as byte-identity too. Three code shapes can break
// that silently, and Go makes one of them actively treacherous:
//
//   - Map iteration: Go randomizes map range order per iteration, so a
//     loop body that schedules engine events, writes exported result
//     state, records trace/stats samples, or draws randomness in map
//     order produces a different event/draw sequence every run. Bodies
//     that only do commutative work (count, sum integers, delete keys,
//     take max) are harmless; a human asserts that with a
//     `//rackvet:commutative <why>` directive. Everything else iterates
//     sorted keys or a deterministically ordered slice.
//   - Global math/rand: package-level rand functions share one process-
//     global stream (seeded or not), so one component's draw count
//     perturbs every other component. Components fork seeded sim.RNG
//     streams instead.
//   - Goroutines: the engine is single-threaded by design; a goroutine
//     on the event path reintroduces scheduler nondeterminism.
//
// Reachability is intra-package: a map-range body that calls a local
// function reaching a sink (transitively, to a fixed point) is flagged
// at the range statement. A call through a function value — a func-typed
// field, parameter, or variable, such as a transport or a commit
// callback — cannot be resolved, so it is assumed to reach the scheduler:
// that is the shape of a Hermes node committing its pending writes in map
// order, each commit sending messages and releasing a callback. Calls
// through interfaces are not resolved — a known, documented
// approximation; the replay tests remain the dynamic backstop for what
// this static gate cannot see.
package simdeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"rackblox/internal/analysis"
)

// Analyzer flags nondeterministic constructs in simulation packages.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: "flag order-sensitive map iteration, global math/rand, and goroutine spawns " +
		"in simulation packages (//rackvet:commutative for order-insensitive map bodies)",
	Applies: applies,
	Run:     run,
}

// simPackages is the determinism perimeter: the packages whose code runs
// on (or drives) the event path.
var simPackages = map[string]bool{
	"rackblox/internal/sim":         true,
	"rackblox/internal/core":        true,
	"rackblox/internal/ec":          true,
	"rackblox/internal/switchsim":   true,
	"rackblox/internal/replication": true,
	"rackblox/internal/ssd":         true,
	"rackblox/internal/sched":       true,
	"rackblox/internal/experiments": true,
}

func applies(pkgPath string) bool { return simPackages[pkgPath] }

// randConstructors are the math/rand package-level functions that only
// build generators; everything else at package level draws from (or
// reseeds) the shared global stream.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// sink classifies why a statement makes iteration order observable.
type sink int

const (
	sinkNone     sink = 0
	sinkSchedule sink = 1 << iota // a sim method that schedules events (see scheduling)
	sinkExported                  // write to an exported field (Result and friends)
	sinkObserver                  // call into internal/trace or internal/stats
	sinkRandom                    // sim.RNG or math/rand draw
	sinkFuncCall                  // call through a function value, assumed to schedule
)

// scheduling lists, per sim receiver type, the methods that schedule
// engine events.
var scheduling = map[string]map[string]bool{
	"Engine": {"At": true, "After": true, "AtNamed": true, "AfterNamed": true,
		"Schedule": true, "ScheduleAfter": true, "SetTick": true},
	"ShardGroup":     {"Post": true, "Send": true},
	"Resource":       {"Reserve": true, "Acquire": true},
	"Bandwidth":      {"Reserve": true, "Transfer": true},
	"PacedBandwidth": {"Admit": true, "Transfer": true},
}

func (s sink) describe() string {
	var parts []string
	if s&sinkSchedule != 0 {
		parts = append(parts, "schedules engine events")
	}
	if s&sinkExported != 0 {
		parts = append(parts, "writes exported result state")
	}
	if s&sinkObserver != 0 {
		parts = append(parts, "records trace/stats samples")
	}
	if s&sinkRandom != 0 {
		parts = append(parts, "draws randomness")
	}
	if s&sinkFuncCall != 0 {
		parts = append(parts, "calls a function value that may schedule events")
	}
	return strings.Join(parts, ", ")
}

type checker struct {
	pass *analysis.Pass
	// summaries aggregates, per locally declared function, the sinks its
	// body hits directly and the local functions it calls.
	summaries map[*types.Func]*summary
}

type summary struct {
	direct  sink
	callees map[*types.Func]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, summaries: map[*types.Func]*summary{}}

	// Pass 1: per-function sink summaries for intra-package reachability.
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			s := &summary{callees: map[*types.Func]bool{}}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				s.direct |= c.directSink(n)
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := analysis.Callee(pass.TypesInfo, call); callee != nil &&
						callee.Pkg() == pass.Pkg {
						s.callees[callee] = true
					}
				}
				return true
			})
			c.summaries[fn] = s
		}
	}
	// Propagate callee sinks to a fixed point.
	for changed := true; changed; {
		changed = false
		for _, s := range c.summaries {
			for callee := range s.callees {
				if cs := c.summaries[callee]; cs != nil && s.direct|cs.direct != s.direct {
					s.direct |= cs.direct
					changed = true
				}
			}
		}
	}

	// Pass 2: report.
	pass.CheckDirectiveRationales("commutative")
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// The shard runner is the sanctioned exception: its
				// worker-per-shard pool is what lets ShardGroup.Run stay
				// byte-identical to RunSequential (goroutinediscipline
				// carries the same carve-out).
				if !pass.InShardRunnerFile(n.Pos()) {
					pass.Reportf(n.Pos(),
						"goroutine spawn in simulation code: the engine is single-threaded; "+
							"goroutine interleaving breaks bit-exact replay")
				}
			case *ast.CallExpr:
				if fn := c.globalRand(n); fn != nil {
					pass.Reportf(n.Pos(),
						"global math/rand.%s shares one process-wide stream: draw counts in one "+
							"component perturb every other; fork a seeded sim.RNG instead", fn.Name())
				}
			case *ast.RangeStmt:
				c.checkRange(n)
			}
			return true
		})
	}
	return nil
}

// globalRand returns the callee when call is a package-level math/rand
// (or math/rand/v2) function that touches the shared global stream —
// i.e. anything but the generator constructors. Methods on explicitly
// constructed generators are fine here; they only become a finding when
// drawn in map order (see directSink).
func (c *checker) globalRand(call *ast.CallExpr) *types.Func {
	fn := analysis.Callee(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if path := fn.Pkg().Path(); path != "math/rand" && path != "math/rand/v2" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil || randConstructors[fn.Name()] {
		return nil
	}
	return fn
}

// checkRange flags a map-range whose body (transitively) reaches a sink.
func (c *checker) checkRange(rng *ast.RangeStmt) {
	t := c.pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if c.pass.Directive(rng.Pos(), "commutative") {
		return
	}
	var reached sink
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		reached |= c.directSink(n)
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := analysis.Callee(c.pass.TypesInfo, call); callee != nil {
				if s := c.summaries[callee]; s != nil {
					reached |= s.direct
				}
			}
		}
		return true
	})
	if reached == sinkNone {
		return
	}
	c.pass.Reportf(rng.Pos(),
		"map iteration order is randomized per run and this body %s: iterate sorted keys "+
			"(or a deterministically ordered slice), or annotate //rackvet:commutative with a rationale",
		reached.describe())
}

// directSink classifies one AST node as a determinism-relevant side
// effect.
func (c *checker) directSink(n ast.Node) sink {
	info := c.pass.TypesInfo
	switch n := n.(type) {
	case *ast.CallExpr:
		if typ, m := analysis.SimMethod(info, n); scheduling[typ][m] {
			return sinkSchedule
		}
		fn := analysis.Callee(info, n)
		if fn == nil {
			return c.funcValueCall(n)
		}
		if fn.Pkg() == nil {
			return sinkNone
		}
		path := fn.Pkg().Path()
		switch {
		case analysis.PkgPathIs(fn.Pkg(), "rackblox/internal/trace"),
			analysis.PkgPathIs(fn.Pkg(), "rackblox/internal/stats"):
			return sinkObserver
		case path == "math/rand" || path == "math/rand/v2":
			// Methods on generator values draw too — from a stream whose
			// position now depends on iteration order.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil &&
				randConstructors[fn.Name()] {
				return sinkNone
			}
			return sinkRandom
		}
		if named := analysis.ReceiverNamed(fn); named != nil &&
			named.Obj().Name() == "RNG" &&
			analysis.PkgPathIs(named.Obj().Pkg(), "rackblox/internal/sim") {
			return sinkRandom
		}
		return sinkNone
	case *ast.AssignStmt:
		var s sink
		for _, lhs := range n.Lhs {
			s |= c.exportedWrite(lhs)
		}
		return s
	case *ast.IncDecStmt:
		return c.exportedWrite(n.X)
	}
	return sinkNone
}

// funcValueCall classifies a call with no statically known callee: a
// call through a func-typed field, parameter, or variable is a sink;
// conversions, builtins, and immediately invoked literals (whose bodies
// are inspected in place) are not.
func (c *checker) funcValueCall(call *ast.CallExpr) sink {
	if _, lit := ast.Unparen(call.Fun).(*ast.FuncLit); lit {
		return sinkNone
	}
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() || tv.IsBuiltin() {
		return sinkNone
	}
	if _, ok := tv.Type.Underlying().(*types.Signature); !ok {
		return sinkNone
	}
	return sinkFuncCall
}

// exportedWrite reports whether an assignment target writes through an
// exported struct field — the shape of Result mutations and exported
// slice/trace sinks (res.Rows = append(res.Rows, ...)).
func (c *checker) exportedWrite(lhs ast.Expr) sink {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			sel := c.pass.TypesInfo.Selections[e]
			if sel != nil && sel.Kind() == types.FieldVal && e.Sel.IsExported() {
				return sinkExported
			}
			lhs = e.X
		default:
			return sinkNone
		}
	}
}
