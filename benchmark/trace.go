package main

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lht"
	"lht/internal/dht"
	"lht/internal/tcpnet"
)

// span is one timed interval at a layer boundary, in nanoseconds since
// the start of the pass.
type span struct {
	start, end int64
	name       string // "op.get", "dht.get_batch", "tcpnet.putif", ...
	key        string // DHT key; empty for batches and op spans
	id, parent int    // assigned by analyse
}

func (s span) dur() int64 { return s.end - s.start }

// spanLog collects the spans of one layer for one client. It is appended
// to only while a traced pass runs; range forwarding may record from
// several goroutines.
type spanLog struct {
	on    atomic.Bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, 0, capacity)} }

func (l *spanLog) add(name, key string, start time.Time, d time.Duration) {
	s := start.Sub(l.base).Nanoseconds()
	l.mu.Lock()
	l.spans = append(l.spans, span{start: s, end: s + d.Nanoseconds(), name: name, key: key})
	l.mu.Unlock()
}

// RecordOp implements lht.TraceSink: the index reports one event per DHT
// primitive at its Instrumented boundary, which becomes a dht.* span.
func (l *spanLog) RecordOp(e lht.OpEvent) {
	if l.on.Load() {
		l.add("dht."+e.Kind, e.Key, e.Start, e.Duration)
	}
}

// tap is the benchmark's own dht.DHT between lht.New and the
// tcpnet.Client. It counts the calls that reach the client (a batch is
// one) and, during a traced pass, times each as a tcpnet.* span. The
// batch and conditional planes are delegated natively, so the index sees
// the same capabilities as over the bare client.
type tap struct {
	c                            *tcpnet.Client
	log                          *spanLog
	calls, batchCalls, batchKeys atomic.Int64
}

var (
	_ dht.DHT         = (*tap)(nil)
	_ dht.Batcher     = (*tap)(nil)
	_ dht.Conditional = (*tap)(nil)
)

// begin counts a call and, when tracing, reads the clock.
func (t *tap) begin() time.Time {
	t.calls.Add(1)
	if t.log.on.Load() {
		return time.Now()
	}
	return time.Time{}
}

func (t *tap) end(name, key string, start time.Time) {
	if !start.IsZero() {
		t.log.add(name, key, start, time.Since(start))
	}
}

func (t *tap) Get(ctx context.Context, key string) (dht.Value, error) {
	defer t.end("tcpnet.get", key, t.begin())
	return t.c.Get(ctx, key)
}

func (t *tap) Put(ctx context.Context, key string, v dht.Value) error {
	defer t.end("tcpnet.put", key, t.begin())
	return t.c.Put(ctx, key, v)
}

func (t *tap) Take(ctx context.Context, key string) (dht.Value, error) {
	defer t.end("tcpnet.take", key, t.begin())
	return t.c.Take(ctx, key)
}

func (t *tap) Remove(ctx context.Context, key string) error {
	defer t.end("tcpnet.remove", key, t.begin())
	return t.c.Remove(ctx, key)
}

func (t *tap) Write(ctx context.Context, key string, v dht.Value) error {
	defer t.end("tcpnet.write", key, t.begin())
	return t.c.Write(ctx, key, v)
}

func (t *tap) GetBatch(ctx context.Context, keys []string) ([]dht.Value, []error) {
	t.batchCalls.Add(1)
	t.batchKeys.Add(int64(len(keys)))
	defer t.end("tcpnet.get_batch", "", t.begin())
	return t.c.GetBatch(ctx, keys)
}

func (t *tap) PutBatch(ctx context.Context, kvs []dht.KV) []error {
	t.batchCalls.Add(1)
	t.batchKeys.Add(int64(len(kvs)))
	defer t.end("tcpnet.put_batch", "", t.begin())
	return t.c.PutBatch(ctx, kvs)
}

func (t *tap) PutIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	defer t.end("tcpnet.putif", key, t.begin())
	return t.c.PutIf(ctx, key, v, ifEpoch)
}

func (t *tap) CreateIf(ctx context.Context, key string, v dht.Value) error {
	defer t.end("tcpnet.createif", key, t.begin())
	return t.c.CreateIf(ctx, key, v)
}

func (t *tap) RemoveIf(ctx context.Context, key string, ifEpoch uint64) error {
	defer t.end("tcpnet.removeif", key, t.begin())
	return t.c.RemoveIf(ctx, key, ifEpoch)
}

func (t *tap) WriteIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	defer t.end("tcpnet.writeif", key, t.begin())
	return t.c.WriteIf(ctx, key, v, ifEpoch)
}

// traceStats is what the span tree of a traced pass says per layer.
type traceStats struct {
	ops        int
	opNs       int64 // sum of op spans
	lhtSelfNs  int64 // op spans minus the union of their dht.* children
	dhtSelfNs  int64 // dht.* spans minus their tcpnet.* child
	tcpnetNs   int64 // sum of tcpnet.* spans
	seqSteps   int64 // per op, the longest chain of non-overlapping dht.* spans, summed
	orphans    int   // spans that fell in no op, or tcpnet.* spans with no dht.* parent
	dhtGetNs   []int64
	dhtBatchNs []int64
	dhtCondNs  []int64
	spans      [][]span // per client: the whole tree, ids and parents assigned
}

// analyse links the three layers' spans of every client into trees and
// derives self times. An index handle runs one facade call at a time, so
// a dht.* span belongs to the op whose interval contains it, and each
// dht.* span wraps exactly one call into the tap: the tcpnet.* span of the
// same primitive and key inside its interval.
func analyse(opSpans, dhtSpans, tcpSpans [][]span) traceStats {
	var st traceStats
	nextID := 1
	for c := range opSpans {
		ops, dhts, tcps := opSpans[c], dhtSpans[c], tcpSpans[c]
		byStart := func(a, b span) int { return cmp.Compare(a.start, b.start) }
		slices.SortFunc(dhts, byStart)
		slices.SortFunc(tcps, byStart)
		for i := range ops {
			ops[i].id = nextID
			nextID++
		}
		// owner returns the index of the op whose interval contains s.
		owner := func(s span) int {
			i, _ := slices.BinarySearchFunc(ops, s.start+1, func(o span, t int64) int { return cmp.Compare(o.start, t) })
			if i--; i >= 0 && s.end <= ops[i].end {
				return i
			}
			return -1
		}
		dhtOf := make([][]int, len(ops)) // per op, indexes into dhts
		for j := range dhts {
			dhts[j].id = nextID
			nextID++
			if i := owner(dhts[j]); i >= 0 {
				dhts[j].parent = ops[i].id
				dhtOf[i] = append(dhtOf[i], j)
			} else {
				st.orphans++
			}
		}
		claimed := make([]bool, len(dhts))
		childNs := make([]int64, len(dhts))
		for j := range tcps {
			tcps[j].id = nextID
			nextID++
			st.tcpnetNs += tcps[j].dur()
			i := owner(tcps[j])
			if i < 0 {
				st.orphans++
				continue
			}
			tcps[j].parent = ops[i].id
			found := false
			for _, k := range dhtOf[i] {
				d := dhts[k]
				if !claimed[k] && d.name[len("dht."):] == tcps[j].name[len("tcpnet."):] && d.key == tcps[j].key &&
					d.start <= tcps[j].start && tcps[j].end <= d.end {
					claimed[k], found = true, true
					childNs[k] = tcps[j].dur()
					tcps[j].parent = d.id
					break
				}
			}
			if !found {
				st.orphans++
			}
		}
		for i, o := range ops {
			st.ops++
			st.opNs += o.dur()
			// Children in start order: their union, and the longest chain of
			// spans that each start after the previous one ended.
			var covered, reach int64
			var steps, chainEnd int64
			for _, k := range dhtOf[i] {
				d := dhts[k]
				st.dhtSelfNs += d.dur() - childNs[k]
				if d.start >= reach {
					covered += d.dur()
				} else if d.end > reach {
					covered += d.end - reach
				}
				reach = max(reach, d.end)
				switch name := d.name; {
				case name == "dht.get":
					st.dhtGetNs = append(st.dhtGetNs, d.dur())
				case name == "dht.get_batch":
					st.dhtBatchNs = append(st.dhtBatchNs, d.dur())
				case name == "dht.putif" || name == "dht.createif" || name == "dht.removeif" || name == "dht.writeif":
					st.dhtCondNs = append(st.dhtCondNs, d.dur())
				}
			}
			// Longest chain: greedy by earliest end.
			kids := make([]span, 0, len(dhtOf[i]))
			for _, k := range dhtOf[i] {
				kids = append(kids, dhts[k])
			}
			slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.end, b.end) })
			for _, d := range kids {
				if d.start >= chainEnd {
					steps++
					chainEnd = d.end
				}
			}
			st.seqSteps += steps
			st.lhtSelfNs += o.dur() - covered
		}
		all := make([]span, 0, len(ops)+len(dhts)+len(tcps))
		all = append(append(append(all, ops...), dhts...), tcps...)
		slices.SortStableFunc(all, byStart) // stable: a parent sorts before a child that starts in the same nanosecond
		st.spans = append(st.spans, all)
	}
	return st
}

// writeTrace writes the span tree, one JSON object per line. `op` is the
// id of the op span a span descends from (its own id for an op span), so
// `grep '"op":1234,'` extracts one request.
func writeTrace(path string, st traceStats) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	for c, spans := range st.spans {
		opOf := map[int]int{} // span id -> op id
		for _, s := range spans {
			op := s.id
			if s.parent != 0 {
				op = opOf[s.parent]
			}
			opOf[s.id] = op
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"client":%d,"op":%d,"name":%q,"key":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				s.id, s.parent, c, op, s.name, s.key, s.start, s.end)
		}
	}
	return w.Flush()
}
