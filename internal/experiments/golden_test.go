package experiments

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"rackblox/internal/core"
)

// benchFile is the checked-in trajectory of the whole registry, written
// by rackbench -exp all -scale 0.25 -json auto.
const benchFile = "../../BENCH_all.json"

// benchRun is the simulation-domain part of one rackbench -json run
// record: its key and the engine counters it carries.
type benchRun struct {
	Experiment         string            `json:"experiment"`
	Series             string            `json:"series"`
	Events             uint64            `json:"events"`
	EventsByHandler    map[string]uint64 `json:"events_by_handler,omitempty"`
	RepairRateTimeline []core.RatePoint  `json:"repair_rate_timeline,omitempty"`
}

// TestCheckedInBenchTables makes the checked-in BENCH tables the oracle a
// refactor is held to: regenerating every experiment the file lists, in
// its order and at its recorded scale, must reproduce each table exactly,
// and the per-run records must come back with the same keys, in the same
// order, with the same event counts.
func TestCheckedInBenchTables(t *testing.T) {
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Experiments []string   `json:"experiments"`
		Scale       float64    `json:"scale"`
		Tables      []*Table   `json:"tables"`
		Runs        []benchRun `json:"runs"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	if !reflect.DeepEqual(want.Experiments, ids) {
		t.Fatalf("%s covers %v, want the whole registry %v", benchFile, want.Experiments, ids)
	}
	var got []benchRun
	opt := Options{OnResult: func(id, series string, res *core.Result) {
		got = append(got, benchRun{id, series, res.Events, res.EventsByHandler, res.RepairRateTimeline})
	}}
	var tables []*Table
	for _, id := range want.Experiments {
		ts, err := ByID(id, Scale(want.Scale), opt)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, ts...)
	}
	if len(tables) != len(want.Tables) {
		t.Fatalf("regenerated %d tables, %s holds %d", len(tables), benchFile, len(want.Tables))
	}
	for i, tb := range want.Tables {
		if !reflect.DeepEqual(tables[i], tb) {
			a, _ := json.Marshal(tables[i])
			b, _ := json.Marshal(tb)
			t.Errorf("%s differs from %s\ngot:  %.600s\nwant: %.600s", tb.ID, benchFile, a, b)
		}
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want.Runs)
	if string(a) != string(b) {
		t.Errorf("run records differ from %s\ngot:  %.600s\nwant: %.600s", benchFile, a, b)
	}
}
