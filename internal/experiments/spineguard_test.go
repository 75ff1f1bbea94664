package experiments

import (
	"testing"

	"rackblox/internal/core"
)

// TestSpineBytesSelfConsistent guards the spine byte counts of every
// figmr and figslo run. core.Spine counts each traffic class's bytes as
// offered when a transfer is reserved and as delivered when its last
// byte clears the link, so delivered must not exceed offered. Transfers
// serialize on one sim.Bandwidth link, whose TransferTime rounds
// occupancy UP to whole nanoseconds, so the delivered total can never
// imply a rate above the configured spine capacity. Truncating instead
// let back-to-back transfers finish early: a saturated spine "moved"
// more bytes per elapsed second than it was configured for, quietly
// inflating the repair-throughput side of the figmr and figslo tables.
func TestSpineBytesSelfConsistent(t *testing.T) {
	for _, id := range []string{"figmr", "figslo"} {
		var runs int
		opt := Options{OnResult: func(id, series string, res *core.Result) {
			runs++
			delivered := res.CrossRackRepairBytes + res.ForegroundCrossRackBytes
			offered := res.CrossRackRepairBytesOffered + res.ForegroundCrossRackBytesOffered
			if delivered > offered {
				t.Errorf("%s/%s: delivered %d bytes exceeds offered %d",
					id, series, delivered, offered)
			}
			if u := res.SpineUtilization; u < 0 || u > 1 {
				t.Errorf("%s/%s: spine utilization %v outside [0,1]", id, series, u)
			}
			if res.Config.CrossRackMBps <= 0 || res.SimulatedTime <= 0 {
				return // single-rack run: no spine to bound
			}
			capacity := res.Config.CrossRackMBps * 1e6 * float64(res.SimulatedTime) / 1e9
			if float64(delivered) > capacity {
				t.Errorf("%s/%s: spine delivered %d bytes in %dns, over the %.0f-byte capacity of a %v MB/s link",
					id, series, delivered, res.SimulatedTime, capacity, res.Config.CrossRackMBps)
			}
		}}
		if _, err := ByID(id, tiny, opt); err != nil {
			t.Fatalf("ByID(%q): %v", id, err)
		}
		if runs == 0 {
			t.Fatalf("%s: OnResult saw no runs", id)
		}
	}
}

// TestRedundancySummaryIsInstrumented pins that the one-off -redundancy
// summary goes through the same runner as the figures: OnResult sees its
// single run, so rackbench -trace/-metrics/-json cover it.
func TestRedundancySummaryIsInstrumented(t *testing.T) {
	var labels []string
	opt := Options{OnResult: func(id, series string, res *core.Result) {
		labels = append(labels, id+": "+series)
	}}
	if _, err := RedundancySummary(core.ErasureCode(4, 2), tiny, opt); err != nil {
		t.Fatal(err)
	}
	if len(labels) != 1 {
		t.Fatalf("OnResult saw %d runs (%q), want exactly 1", len(labels), labels)
	}
}
