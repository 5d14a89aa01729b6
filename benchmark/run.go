package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"lht"
	"lht/internal/dht"
)

// options is everything a run is parameterised by. records, opsAt20 and
// setups exist for the smoke test, which runs at a thousandth of the
// size; results taken with them changed are not comparable.
type options struct {
	workload workloadSpec
	seed     int64
	seconds  int
	trace    bool
	records  int // N
	opsAt20  int // 0: the workload's own
	setups   int // set-ups timed per --trace 0 run
	clients  int
	// skew is added to every version the oracle expects a read to return.
	// It is 0; the smoke test sets it to 1 to see that a wrong expectation
	// is reported.
	skew int32
}

func defaultOptions() options {
	return options{seconds: 20, records: defaultRecords, setups: 9, clients: runtime.NumCPU()}
}

// ops returns the schedule length: opsAt20 scaled by the run length and
// rounded down to a whole number per client.
func (o options) ops() int {
	at20 := o.opsAt20
	if at20 == 0 {
		at20 = o.workload.opsAt20
	}
	n := at20 * o.seconds / 20
	return max(n-n%o.clients, o.clients)
}

// handle is one client: its own lht.Index over the shared tcpnet.Client,
// and in a --trace 1 run the tap and sink that observe it.
type handle struct {
	ix     *lht.Index
	tap    *tap     // nil in --trace 0 runs
	dhtLog *spanLog // nil in --trace 0 runs
}

// bench is one cluster, loaded and warmed up.
type bench struct {
	*cluster
	handles []*handle
}

// checker verifies results against the model.
type checker struct {
	data *dataset
	skew int32
}

// setUp boots a fresh cluster and brings it to the state every timed pass
// starts from. Its duration is setup_s: first node spawn to end of warm-up.
func setUp(ctx context.Context, o options, ck checker, recs []lht.Record, warm []op) (_ *bench, _ time.Duration, err error) {
	start := time.Now()
	cl, err := startCluster(ctx, o.workload.replicas)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			cl.stop()
		}
	}()
	b := &bench{cluster: cl}
	perClient := o.ops() / o.clients
	for c := 0; c < o.clients; c++ {
		h := &handle{}
		var substrate dht.DHT = cl.client
		opts := o.workload.options()
		if o.trace {
			// A handful of DHT calls per op; append grows the logs if an op
			// mix needs more.
			h.dhtLog = newSpanLog(8 * perClient)
			h.tap = &tap{c: cl.client, log: newSpanLog(8 * perClient)}
			substrate = h.tap
			opts = append(opts, lht.WithTraceSink(h.dhtLog))
		}
		if h.ix, err = lht.New(substrate, opts...); err != nil {
			return nil, 0, fmt.Errorf("lht.New: %w", err)
		}
		b.handles = append(b.handles, h)
	}
	if _, err := b.handles[0].ix.BulkLoadContext(ctx, recs); err != nil {
		return nil, 0, fmt.Errorf("bulk load: %w", err)
	}
	for _, w := range warm {
		if _, _, _, fail := (checker{data: ck.data}).exec(ctx, b.handles[0].ix, w); fail != nil {
			return nil, 0, fmt.Errorf("warm-up: %w", fail)
		}
	}
	return b, time.Since(start), nil
}

var errMismatch = errors.New("result does not match the model")

// exec issues one scheduled call and checks what it returned. The clock
// is read around the facade call only; checking happens after, allocates
// nothing on success, and so stays out of every timing and (but for its
// CPU time) every count.
func (ck checker) exec(ctx context.Context, ix *lht.Index, o op) (cost lht.Cost, t0 time.Time, d time.Duration, fail error) {
	var err error
	t0 = time.Now()
	switch o.kind {
	case opGet:
		var rec lht.Record
		rec, cost, err = ix.GetContext(ctx, o.key)
		d = time.Since(t0)
		switch {
		case o.version < 0:
			if !errors.Is(err, lht.ErrKeyNotFound) {
				fail = fmt.Errorf("get %v of an absent key: %v, want ErrKeyNotFound", o.key, err)
			}
		case err != nil:
			fail = fmt.Errorf("get %v: %w", o.key, err)
		case rec.Key != o.key || !valueOK(rec.Value, o.key, o.version+ck.skew):
			fail = fmt.Errorf("get %v: value is not version %d: %w", o.key, o.version+ck.skew, errMismatch)
		}
	case opRange:
		var recs []lht.Record
		recs, cost, err = ix.RangeContext(ctx, o.key, o.key+rangeSpan)
		d = time.Since(t0)
		if err != nil {
			fail = fmt.Errorf("range %v: %w", o.key, err)
		} else {
			fail = ck.checkRange(o.key, o.key+rangeSpan, recs)
		}
	case opInsert:
		cost, err = ix.InsertContext(ctx, lht.Record{Key: o.key, Value: o.value})
		d = time.Since(t0)
		if err != nil {
			fail = fmt.Errorf("insert %v: %w", o.key, err)
		}
	case opDelete:
		cost, err = ix.DeleteContext(ctx, o.key)
		d = time.Since(t0)
		if present := o.version >= 0; present && err != nil {
			fail = fmt.Errorf("delete %v: %w", o.key, err)
		} else if !present && !errors.Is(err, lht.ErrKeyNotFound) {
			fail = fmt.Errorf("delete %v of an absent key: %v, want ErrKeyNotFound", o.key, err)
		}
	}
	return cost, t0, d, fail
}

// checkRange compares a range result with the loaded keys in [lo, hi):
// count, every key, every value. The facade does not promise an order, so
// the records are sorted by key first (in place, without allocating).
func (ck checker) checkRange(lo, hi float64, recs []lht.Record) error {
	keys := ck.data.keys
	want := keys[sort.SearchFloat64s(keys, lo):sort.SearchFloat64s(keys, hi)]
	if len(recs) != len(want) {
		return fmt.Errorf("range [%v, %v): %d records, want %d: %w", lo, hi, len(recs), len(want), errMismatch)
	}
	slices.SortFunc(recs, func(a, b lht.Record) int { return cmp.Compare(a.Key, b.Key) })
	for i, r := range recs {
		if r.Key != want[i] || !valueOK(r.Value, r.Key, ck.skew) {
			return fmt.Errorf("range [%v, %v): record %d (key %v) is not the model's: %w", lo, hi, i, r.Key, errMismatch)
		}
	}
	return nil
}

// pass is the record of one timed pass over a schedule.
type pass struct {
	ops      int
	failed   int
	failures []error   // the first few, for the log
	startNs  [][]int64 // per client and op, since the start of the pass
	durNs    [][]int64
	wall     time.Duration
	lookups  int64 // sum of the Cost.Lookups the facade returned
	use      usage
	lht      lht.Snapshot // Index.Metrics() over the pass, summed over handles
	calls    tapCounts
}

type tapCounts struct{ calls, batchCalls, batchKeys int64 }

func (b *bench) tapCounts() tapCounts {
	var t tapCounts
	for _, h := range b.handles {
		if h.tap != nil {
			t.calls += h.tap.calls.Load()
			t.batchCalls += h.tap.batchCalls.Load()
			t.batchKeys += h.tap.batchKeys.Load()
		}
	}
	return t
}

// record switches span recording of every handle's two logs on or off;
// base is the instant span times count from.
func (b *bench) record(on bool, base time.Time) {
	for _, h := range b.handles {
		for _, l := range []*spanLog{h.dhtLog, h.tap.log} {
			l.base = base
			l.on.Store(on)
		}
	}
}

func (b *bench) snapshots() []lht.Snapshot {
	out := make([]lht.Snapshot, len(b.handles))
	for i, h := range b.handles {
		out[i] = h.ix.Metrics()
	}
	return out
}

// runPass drives the schedule: one closed-loop goroutine per client, each
// issuing its ops in order and waiting for every reply. Counters are read
// immediately around it and nothing is written to a file in between.
func (b *bench) runPass(ctx context.Context, ck checker, sched [][]op, traced bool) (*pass, error) {
	p := &pass{startNs: make([][]int64, len(sched)), durNs: make([][]int64, len(sched))}
	for c, ops := range sched {
		p.ops += len(ops)
		p.startNs[c] = make([]int64, len(ops))
		p.durNs[c] = make([]int64, len(ops))
	}
	type tally struct {
		lookups  int64
		failed   int
		failures []error
	}
	tallies := make([]tally, len(sched))
	var wg sync.WaitGroup
	var base time.Time
	release := make(chan struct{})
	for c := range sched {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			t, ix := &tallies[c], b.handles[c].ix
			for i, o := range sched[c] {
				if ctx.Err() != nil {
					t.failed += len(sched[c]) - i
					t.failures = append(t.failures, ctx.Err())
					return
				}
				cost, t0, d, fail := ck.exec(ctx, ix, o)
				p.startNs[c][i], p.durNs[c][i] = t0.Sub(base).Nanoseconds(), d.Nanoseconds()
				t.lookups += int64(cost.Lookups)
				if fail != nil {
					t.failed++
					if len(t.failures) < 3 {
						t.failures = append(t.failures, fail)
					}
				}
			}
		}()
	}
	snapsBefore, tapBefore := b.snapshots(), b.tapCounts()
	runtime.GC() // every pass starts from a collected heap
	before, err := b.takeSample(ctx, true)
	if err != nil {
		close(release)
		wg.Wait()
		return nil, err
	}
	base = time.Now()
	if traced {
		b.record(true, base)
	}
	close(release)
	wg.Wait()
	p.wall = time.Since(base)
	after, err := b.takeSample(ctx, false)
	if err != nil {
		return nil, err
	}
	if traced {
		b.record(false, base)
	}
	p.use = before.until(after)
	for i, s := range b.snapshots() {
		addSnapshot(&p.lht, s.Sub(snapsBefore[i]))
	}
	tapAfter := b.tapCounts()
	p.calls = tapCounts{tapAfter.calls - tapBefore.calls, tapAfter.batchCalls - tapBefore.batchCalls, tapAfter.batchKeys - tapBefore.batchKeys}
	for _, t := range tallies {
		p.lookups += t.lookups
		p.failed += t.failed
		p.failures = append(p.failures, t.failures...)
	}
	for _, f := range p.failures {
		warn("failed op: %v", f)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p, p.use.checkCounted()
}

// addSnapshot accumulates the counters the ledger reads from
// Index.Metrics().
func addSnapshot(dst *lht.Snapshot, s lht.Snapshot) {
	dst.Lookup.Total += s.Lookup.Total
	dst.Lookup.FailedGets += s.Lookup.FailedGets
	dst.Lookup.MovedRecords += s.Lookup.MovedRecords
	dst.Lookup.Splits += s.Lookup.Splits
	dst.Cache.Hits += s.Cache.Hits
	dst.Cache.Misses += s.Cache.Misses
	dst.Cache.Stale += s.Cache.Stale
	dst.Retry.Retries += s.Retry.Retries
	dst.Write.CASConflicts += s.Write.CASConflicts
	for op := range s.Latency.Ops {
		for ph, n := range s.Latency.Ops[op].Phases {
			dst.Latency.Ops[op].Phases[ph] += n
		}
	}
}

// checked counts what the oracle looked at and what it found wrong.
type checked struct{ attempted, failed int }

func (c *checked) add(attempted, failed int) {
	c.attempted += attempted
	c.failed += failed
}

// endChecks verifies what a write workload left behind: the structural
// invariants, the record count, and a read-back of written keys.
func (b *bench) endChecks(ctx context.Context, ck checker, sched [][]op) (attempted, failed int) {
	ix := b.handles[0].ix
	want := modelOutcome(ck.data, sched)
	report := func(err error) {
		if failed++; failed <= 5 {
			warn("failed end check: %v", err)
		}
	}
	attempted += 2
	if err := ix.CheckInvariants(); err != nil {
		report(fmt.Errorf("CheckInvariants: %w", err))
	}
	if n, err := ix.Count(); err != nil {
		report(fmt.Errorf("Count: %w", err))
	} else if n != want.count {
		report(fmt.Errorf("Count = %d, want %d", n, want.count))
	}
	// A sample spread evenly over the written keys of every client.
	step := max(len(want.written)/readBackMax, 1)
	for i := 0; i < len(want.written); i += step {
		attempted++
		if _, _, _, fail := ck.exec(ctx, ix, want.written[i]); fail != nil {
			report(fmt.Errorf("read-back: %w", fail))
		}
	}
	return attempted, failed
}
