package eventlabel_test

import (
	"testing"

	"rackblox/internal/analysis/analysistest"
	"rackblox/internal/analysis/eventlabel"
)

// TestEventlabel exercises unlabeled and string-labeled scheduling
// findings, the NewLabel placement and constant-name rules, the
// //rackvet:unlabeled escape hatch (both placements), the _test.go and
// cmd/ allowlists, and — by running over the fixture sim package itself —
// the exemption for the engine's own forwarder declarations.
func TestEventlabel(t *testing.T) {
	analysistest.Run(t, eventlabel.Analyzer,
		"rackblox/internal/sim",
		"rackblox/internal/demo",
		"rackblox/cmd/demo",
	)
}
