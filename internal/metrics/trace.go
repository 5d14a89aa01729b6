package metrics

import (
	"fmt"
	"sync"
	"time"
)

// OpEvent is one structured trace span: a single DHT primitive issued by
// the instrumentation layer, stamped with the operation class and phase
// that issued it, its duration, and how it ended. A bounded ring of
// these is enough to reconstruct a slow query span-by-span.
//
// Kind is one of get, put, remove, write, putif, createif, removeif,
// writeif, get_batch and put_batch: a Probe or a Patch is traced as the
// get it stands in for, a WritePatchIf as the writeif.
type OpEvent struct {
	Seq      uint64        // monotonically increasing per sink
	Start    time.Time     // when the primitive was issued
	Duration time.Duration // wall time of the primitive
	Kind     string        // DHT primitive, listed above
	Key      string        // DHT key (empty for batches)
	Keys     int           // number of keys carried (1, or batch width)
	Op       Op            // operation class that issued it
	Phase    Phase         // algorithm phase that issued it
	Outcome  string        // ok, not_found, cancelled, deadline, error
	Err      string        // error text when Outcome is error (or not_found detail)
}

// String renders the event as one log-style line.
func (e OpEvent) String() string {
	target := e.Key
	if e.Keys > 1 {
		target = fmt.Sprintf("[%d keys]", e.Keys)
	}
	s := fmt.Sprintf("#%d %s/%s %s %s %v %s",
		e.Seq, e.Op, e.Phase, e.Kind, target, e.Duration.Round(time.Microsecond), e.Outcome)
	if e.Err != "" {
		s += ": " + e.Err
	}
	return s
}

// TraceSink receives op events from the instrumentation layer.
// Implementations must be safe for concurrent use; RecordOp runs on the
// operation's hot path, so it should be cheap and must not block.
type TraceSink interface {
	RecordOp(OpEvent)
}

// Ring is a bounded TraceSink keeping the most recent events. The
// fixed-size buffer means retention never grows with traffic: attach it
// to a long-running process and read the tail after a slow operation.
type Ring struct {
	mu   sync.Mutex
	buf  []OpEvent
	next int    // index of the slot to write
	full bool   // buf has wrapped at least once
	seq  uint64 // events recorded since creation or Reset
}

// NewRing returns a TraceSink retaining the last n events (minimum 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]OpEvent, n)}
}

// RecordOp stores the event, overwriting the oldest when full, and
// assigns its sequence number.
func (r *Ring) RecordOp(e OpEvent) {
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []OpEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]OpEvent(nil), r.buf[:r.next]...)
	}
	out := make([]OpEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Total returns the number of events ever recorded, including those
// already overwritten.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Reset drops all retained events and restarts sequence numbering.
func (r *Ring) Reset() {
	r.mu.Lock()
	r.next, r.full, r.seq = 0, false, 0
	r.mu.Unlock()
}
