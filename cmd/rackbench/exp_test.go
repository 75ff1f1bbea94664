package main

import (
	"reflect"
	"testing"

	"rackblox/internal/experiments"
)

// TestParseExp pins how -exp becomes experiment ids and the -json auto
// file name: ids are trimmed once, when the list is split, so neither the
// report's experiments field nor the BENCH_<name>.json name carries the
// spaces of "figec, figmr".
func TestParseExp(t *testing.T) {
	var all []string
	for _, e := range experiments.All() {
		all = append(all, e.ID)
	}
	cases := []struct {
		in       string
		wantIDs  []string
		wantName string
	}{
		{"figec", []string{"figec"}, "figec"},
		{"figec,figmr", []string{"figec", "figmr"}, "figec_figmr"},
		{"figec, figmr", []string{"figec", "figmr"}, "figec_figmr"},
		{" fig9 ,\tfig10 ", []string{"fig9", "fig10"}, "fig9_fig10"},
		{"all", all, "all"},
	}
	for _, tc := range cases {
		ids, name := parseExp(tc.in)
		if !reflect.DeepEqual(ids, tc.wantIDs) || name != tc.wantName {
			t.Errorf("parseExp(%q) = %q, %q; want %q, %q", tc.in, ids, name, tc.wantIDs, tc.wantName)
		}
	}
}
