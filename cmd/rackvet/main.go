// Command rackvet machine-checks the simulator's five core invariants:
//
//	simdeterminism      — no order-sensitive map iteration, global math/rand,
//	                      or goroutines in simulation packages
//	simtime             — no wall-clock reads where sim logic runs
//	eventlabel          — every scheduled event carries a stable handler label
//	observerpure        — trace/stats observers never perturb the run they watch
//	goroutinediscipline — `go` statements only in the worker pool
//	                      (internal/sim shardrun.go), nowhere else in internal/
//
// Two modes share the same analyzers:
//
//	rackvet [packages]                   # standalone; defaults to ./...
//	go vet -vettool=$(which rackvet) ./... # as a cmd/go vet tool
//
// Standalone mode exits 1 when findings exist; under go vet the driver's
// usual conventions apply. See the "Simulator invariants" section of the
// rackblox package documentation for the rules and their escape hatches.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"rackblox/internal/analysis"
	"rackblox/internal/analysis/eventlabel"
	"rackblox/internal/analysis/goroutinediscipline"
	"rackblox/internal/analysis/observerpure"
	"rackblox/internal/analysis/simdeterminism"
	"rackblox/internal/analysis/simtime"
)

var analyzers = []*analysis.Analyzer{
	simdeterminism.Analyzer,
	simtime.Analyzer,
	eventlabel.Analyzer,
	observerpure.Analyzer,
	goroutinediscipline.Analyzer,
}

func main() {
	os.Exit(run())
}

func run() int {
	versionFlag := flag.String("V", "", "print version and exit (cmd/go protocol; use -V=full)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON and exit (cmd/go protocol)")
	flag.Usage = usage
	flag.Parse()

	// cmd/go interrogates the tool's identity to key its vet cache; the
	// content hash of the executable invalidates cached results whenever
	// the analyzers change.
	if *versionFlag != "" {
		fmt.Printf("rackvet version devel buildID=%s\n", selfHash())
		return 0
	}
	// cmd/go asks which flags the tool supports before forwarding any;
	// rackvet's analyzers are deliberately knob-free.
	if *flagsFlag {
		fmt.Println("[]")
		return 0
	}

	args := flag.Args()
	// Under `go vet -vettool=...` the driver invokes the tool once per
	// package with a single JSON config file argument.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return analysis.RunUnit(args[0], analyzers)
	}

	// Standalone mode: load, check, report.
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", args...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rackvet: %v\n", err)
		return 1
	}
	found, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rackvet: %v\n", err)
		return 1
	}
	if len(found) == 0 {
		return 0
	}
	paths := make([]string, 0, len(found))
	for path := range found {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		for _, pkg := range pkgs {
			if pkg.PkgPath != path {
				continue
			}
			fmt.Fprintf(os.Stderr, "# %s\n", path)
			for _, d := range found[path] {
				fmt.Fprintf(os.Stderr, "%s: %s\n", pkg.Fset.Position(d.Pos), d.Message)
			}
		}
	}
	return 1
}

// selfHash content-hashes the running executable, giving cmd/go a build
// ID that changes exactly when the tool does.
func selfHash() string {
	exe, err := os.Executable()
	if err == nil {
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return fmt.Sprintf("%x", h.Sum(nil)[:16])
			}
		}
	}
	return "unknown"
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: rackvet [packages]\n\nchecks:\n")
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
	}
	flag.PrintDefaults()
}
