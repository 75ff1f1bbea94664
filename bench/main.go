// Command bench is the simulator's benchmark. For each workload it
// measures, from outside the simulator's packages:
//
//   - end to end (-trace 0): set-up time, host time and memory of one
//     Rack.Run, and the simulated outcome (read latency percentiles,
//     IOPS, write amplification), over untraced repetitions;
//   - per layer (-trace 1): counters read off the Result, the tail
//     attribution of a traced run and the tracing overhead, and one
//     microbenchmark per package timed through its public API.
//
// Every run is checked: repetitions of one seed must compute identical
// Results, a traced Result must equal the untraced one, failure
// scenarios must heal fully, and no request may fail. Each metric is
// printed as "workload metric value unit"; the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. The exit code is 1 when a check fails and 2 on bad flags.
//
// Build and run it with bench/run.sh from the root of the repository.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed every workload's inputs derive from (7 is held out for gain claims)")
	seconds := fs.Float64("seconds", 10, "host seconds each phase of a workload spends on timed repetitions")
	phase := fs.Int("trace", -1, "0: end-to-end metrics; 1: per-layer metrics; -1: both")
	jsonPath := fs.String("json", "", "also write the metrics with the host fingerprint and sample counts to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *phase < -1 || *phase > 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "bench: want -trace -1, 0 or 1, -seconds >= 0, and no positional arguments")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want all, %s)\n", *name, strings.Join(names, ", "))
			return 2
		}
		selected = []workload{w}
	}

	// Pin the runtime so that neither the environment nor a container
	// quota changes what is measured.
	runtime.GOMAXPROCS(runtime.NumCPU())
	debug.SetGCPercent(100)
	h := fingerprint()
	fmt.Fprintf(stdout, "# host cpus=%d gomaxprocs=%d go=%s os=%s arch=%s\n",
		h.CPUs, h.GOMAXPROCS, h.Go, h.OS, h.Arch)

	o := options{seed: *seed, seconds: *seconds, scale: 1, endToEnd: *phase != 1, layers: *phase != 0}
	var reports []report
	for _, w := range selected {
		rep := runWorkload(w, o)
		for _, m := range rep.metrics {
			fmt.Fprintf(stdout, "%s %s %s %s\n", rep.workload, m.name, formatValue(m.value), m.unit)
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				rep.problem("%s is not a finite number", m.name)
			}
		}
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", rep.workload, p)
		}
		reports = append(reports, rep)
	}

	code := 0
	if *jsonPath != "" {
		if err := writeJSONFile(*jsonPath, h, o, reports); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			code = 1
		}
	}
	line, err := resultLine(reports)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	for _, rep := range reports {
		if len(rep.problems) > 0 {
			code = 1
		}
	}
	return code
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// host is the fingerprint every record carries, so numbers are compared
// only between matching hosts.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func fingerprint() host {
	return host{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON object. With several workloads each
// metric name is prefixed by its workload and a slash.
func resultLine(reports []report) (string, error) {
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, rep := range reports {
		out.Correct = out.Correct && len(rep.problems) == 0
		out.Attempted += rep.attempted
		out.Failed += rep.failed
		for _, m := range rep.metrics {
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				continue
			}
			key := m.name
			if len(reports) > 1 {
				key = rep.workload + "/" + m.name
			}
			out.Metrics[key] = value{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// writeJSONFile records the run machine-readably, with the host
// fingerprint and how many samples each metric was computed from.
func writeJSONFile(path string, h host, o options, reports []report) error {
	type fileMetric struct {
		Name    string  `json:"name"`
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
	}
	type fileWorkload struct {
		Workload  string       `json:"workload"`
		Correct   bool         `json:"correct"`
		Attempted int64        `json:"attempted"`
		Failed    int64        `json:"failed"`
		Problems  []string     `json:"problems,omitempty"`
		Metrics   []fileMetric `json:"metrics"`
	}
	out := struct {
		Host      host           `json:"host"`
		Seed      int64          `json:"seed"`
		Seconds   float64        `json:"seconds"`
		Workloads []fileWorkload `json:"workloads"`
	}{Host: h, Seed: o.seed, Seconds: o.seconds}
	for _, rep := range reports {
		fw := fileWorkload{Workload: rep.workload, Correct: len(rep.problems) == 0,
			Attempted: rep.attempted, Failed: rep.failed, Problems: rep.problems}
		for _, m := range rep.metrics {
			if !math.IsNaN(m.value) && !math.IsInf(m.value, 0) {
				fw.Metrics = append(fw.Metrics, fileMetric{m.name, m.value, m.unit, m.samples})
			}
		}
		out.Workloads = append(out.Workloads, fw)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
