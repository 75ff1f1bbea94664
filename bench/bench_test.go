package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// declaration is the part of BENCHMARK.json the benchmark must agree with.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWorkloadsMatchDeclaration(t *testing.T) {
	d := readDeclaration(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := d.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), runs %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
}

// TestSmoke runs every workload at a hundredth of its simulated length
// and of its microbenchmark operation counts, through both phases: each
// must emit exactly the declared metrics, all finite, and pass every
// check.
func TestSmoke(t *testing.T) {
	d := readDeclaration(t)
	want := map[string]string{}
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		want[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep := runWorkload(w, options{seed: 1, scale: 0.01, endToEnd: true, layers: true})
			for _, p := range rep.problems {
				t.Errorf("check failed: %s", p)
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			got := map[string]bool{}
			for _, m := range rep.metrics {
				switch unit, ok := want[m.name]; {
				case !ok:
					t.Errorf("undeclared metric %s", m.name)
				case unit != m.unit:
					t.Errorf("%s: unit %q, declared %q", m.name, m.unit, unit)
				case got[m.name]:
					t.Errorf("%s emitted twice", m.name)
				}
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v", m.name, m.value)
				}
				got[m.name] = true
			}
			var missing []string
			for name := range want {
				if !got[name] {
					missing = append(missing, name)
				}
			}
			sort.Strings(missing)
			if len(missing) > 0 {
				t.Errorf("metrics not emitted: %s", strings.Join(missing, ", "))
			}

			line, err := resultLine([]report{rep})
			if err != nil {
				t.Fatal(err)
			}
			var result map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &result); err != nil {
				t.Fatal(err)
			}
			var keys []string
			for k := range result {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
				t.Errorf("result line has keys %v", keys)
			}
		})
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "-1"},
		{"extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
}
