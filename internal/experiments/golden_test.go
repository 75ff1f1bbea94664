package experiments

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"rackblox/internal/core"
)

// benchFile is the checked-in trajectory written by
// rackbench -exp figec,figmr,figrl,figsc,figslo,figra -scale 0.25 -json auto.
const benchFile = "../../BENCH_figec_figmr_figrl_figsc_figslo_figra.json"

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
// refactor is held to: regenerating every experiment in the file at its
// recorded scale must reproduce each table exactly, and the per-run
// records must come back with the same keys, in the same order, with the
// same event counts.
func TestCheckedInBenchTables(t *testing.T) {
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Scale  float64    `json:"scale"`
		Tables []*Table   `json:"tables"`
		Runs   []benchRun `json:"runs"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Tables) != 6 {
		t.Fatalf("%s holds %d tables, want 6 (figec, figmr, figrl, figsc, figslo, figra)", benchFile, len(want.Tables))
	}
	var got []benchRun
	opt := Options{OnResult: func(id, series string, res *core.Result) {
		got = append(got, benchRun{id, series, res.Events, res.EventsByHandler, res.RepairRateTimeline})
	}}
	for _, tb := range want.Tables {
		tables, err := ByID(strings.ToLower(tb.ID), Scale(want.Scale), opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(tables) != 1 || !reflect.DeepEqual(tables[0], tb) {
			a, _ := json.Marshal(tables)
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
