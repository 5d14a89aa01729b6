package metrics

import "context"

// Op classifies an index-level operation for latency and phase
// attribution. OpOther is the zero value: traffic issued outside any
// labelled operation.
type Op int

const (
	OpOther Op = iota
	OpGet
	OpInsert
	OpDelete
	OpRange
	OpMin
	OpMax
	OpScan
	OpBulkLoad
	OpScrub
	NumOps // count sentinel, keep last
)

var opNames = [NumOps]string{
	"other", "get", "insert", "delete", "range",
	"min", "max", "scan", "bulkload", "scrub",
}

func (o Op) String() string {
	if o < 0 || o >= NumOps {
		return "invalid"
	}
	return opNames[o]
}

// Phase classifies which part of an algorithm issued a DHT-lookup.
// PhaseOther is the zero value: the operation's own direct reads and
// writes (e.g. the write-back of an insert).
type Phase int

const (
	PhaseOther   Phase = iota
	PhaseProbe         // Algorithm 2 binary search and cache probes
	PhaseForward       // range/scan forwarding along tree edges (Alg 3/4)
	PhaseSplit         // leaf split traffic (Alg 1 maintenance)
	PhaseMerge         // leaf merge traffic (Alg 1 maintenance)
	PhaseRepair        // torn-state read-repair and scrub repairs
	PhaseRetry         // policy-layer re-attempts after transient faults
	NumPhases          // count sentinel, keep last
)

var phaseNames = [NumPhases]string{
	"other", "probe", "forward", "split", "merge", "repair", "retry",
}

func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "invalid"
	}
	return phaseNames[p]
}

// Labels are the attribution labels carried on a context: which
// operation class is running and which algorithm phase it is in. The
// zero value (OpOther, PhaseOther) labels unattributed traffic.
type Labels struct {
	Op    Op
	Phase Phase
}

type labelsKey struct{}

// labelTable holds every in-range Labels value once. A context carries a
// pointer into it, which an interface holds without boxing, so labelling
// a context costs its one context node.
var labelTable = func() (t [NumOps][NumPhases]Labels) {
	for op := range t {
		for ph := range t[op] {
			t[op][ph] = Labels{Op: Op(op), Phase: Phase(ph)}
		}
	}
	return t
}()

// withLabels labels ctx with an operation class and an algorithm phase
// at once. It returns ctx unchanged when it already carries both.
func withLabels(ctx context.Context, lb Labels) context.Context {
	if LabelsFrom(ctx) == lb {
		return ctx
	}
	var p *Labels
	if lb.Op >= 0 && lb.Op < NumOps && lb.Phase >= 0 && lb.Phase < NumPhases {
		p = &labelTable[lb.Op][lb.Phase]
	} else {
		p = new(Labels) // out of the table's range: the only boxed labels
		*p = lb
	}
	return context.WithValue(ctx, labelsKey{}, p)
}

// WithOp starts a new operation scope: it labels ctx with the given
// class and resets the phase to PhaseOther. Index entry points open
// their scope with Counters.BeginOp, which sets both labels at once;
// everything beneath inherits the class.
func WithOp(ctx context.Context, op Op) context.Context {
	return withLabels(ctx, Labels{Op: op})
}

// WithPhase labels ctx with the algorithm phase, keeping the operation
// class already on it. Returns ctx unchanged when the phase is already
// set, so it is cheap to call in loops and recursion.
func WithPhase(ctx context.Context, phase Phase) context.Context {
	lb := LabelsFrom(ctx)
	if lb.Phase == phase {
		return ctx
	}
	lb.Phase = phase
	return withLabels(ctx, lb)
}

// LabelsFrom returns the attribution labels on ctx, or the zero Labels
// when none are set.
func LabelsFrom(ctx context.Context) Labels {
	if p, ok := ctx.Value(labelsKey{}).(*Labels); ok {
		return *p
	}
	return Labels{}
}
