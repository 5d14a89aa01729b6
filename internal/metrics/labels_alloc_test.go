//go:build !race

package metrics

import (
	"context"
	"testing"
)

// TestLabelsAllocateOneContextNode pins what labelling a context costs:
// WithOp and WithPhase each allocate exactly the one context node they
// add, the labels being a pointer into a static table, and LabelsFrom
// allocates nothing. A boxed Labels value coming back costs a second
// allocation per call. (Not under the race detector, which may allocate
// on its own.)
func TestLabelsAllocateOneContextNode(t *testing.T) {
	ctx := WithOp(context.Background(), OpInsert)
	for _, tc := range []struct {
		name string
		want float64
		f    func()
	}{
		{"WithOp", 1, func() { _ = WithOp(ctx, OpGet) }},
		{"WithPhase", 1, func() { _ = WithPhase(ctx, PhaseProbe) }},
		{"LabelsFrom", 0, func() { _ = LabelsFrom(ctx) }},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n != tc.want {
			t.Errorf("%s allocates %v per call, want %v", tc.name, n, tc.want)
		}
	}
}
