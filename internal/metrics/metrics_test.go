package metrics

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersAndSnapshot(t *testing.T) {
	var c Counters
	c.Add(Lookups, 3)
	c.Add(FailedGets, 1)
	c.Add(MovedRecords, 10)
	c.Add(Splits, 2)
	c.Add(Merges, 1)
	c.Add(MaintLookups, 2)
	c.Add(CacheHits, 5)
	c.Add(CacheMisses, 4)
	c.Add(CacheStale, 3)
	c.Add(BatchOps, 2)
	c.Add(BatchedKeys, 1)
	s := c.Snapshot()
	want := Snapshot{
		Lookup: LookupCounts{Total: 3, FailedGets: 1, MovedRecords: 10, Splits: 2, Merges: 1, Maintenance: 2},
		Cache:  CacheCounts{Hits: 5, Misses: 4, Stale: 3},
		Batch:  BatchCounts{Ops: 2, Keys: 1},
	}
	if s != want {
		t.Fatalf("Snapshot = %+v, want %+v", s, want)
	}
	if got := s.RoundTrips(); got != 4 { // 3 lookups, 1 of them batched, 2 batches
		t.Fatalf("RoundTrips = %d, want 4", got)
	}
	diff := s.Sub(Snapshot{Lookup: LookupCounts{Total: 1, MovedRecords: 4}, Cache: CacheCounts{Hits: 2}})
	if diff.Lookup.Total != 2 || diff.Lookup.MovedRecords != 6 || diff.Lookup.Splits != 2 ||
		diff.Cache.Hits != 3 || diff.Cache.Stale != 3 {
		t.Fatalf("Sub = %+v", diff)
	}
	c.Reset()
	if c.Snapshot() != (Snapshot{}) {
		t.Fatal("Reset incomplete")
	}
}

// TestCounterTableComplete is the check that a counter's three spellings
// (constant, counterTable row, Snapshot field) all exist and agree, and
// that everything derived from the table carries every counter.
func TestCounterTableComplete(t *testing.T) {
	for k, r := range counterTable {
		if r.name == "" || r.help == "" || r.field == nil {
			t.Fatalf("counter %d has no complete counterTable row: %+v", k, r)
		}
	}
	var parent, child Counters
	child.Chain(&parent)
	for k := Counter(0); k < NumCounters; k++ {
		child.Add(k, int64(k)+1)
	}
	cs, ps := child.Snapshot(), parent.Snapshot()

	var b strings.Builder
	if err := WritePrometheus(&b, cs); err != nil {
		t.Fatal(err)
	}
	prom, counts := b.String(), cs.Counts()
	nameRE := regexp.MustCompile(`^[a-z_]+$`)
	names := map[string]Counter{}
	ptrs := map[*int64]Counter{}
	for k := Counter(0); k < NumCounters; k++ {
		r, want := counterTable[k], int64(k)+1
		if got := *r.field(&cs); got != want {
			t.Errorf("%s: child snapshot field = %d, want %d", r.name, got, want)
		}
		if got := *r.field(&ps); got != want {
			t.Errorf("%s: parent snapshot field = %d, want %d", r.name, got, want)
		}
		if prev, dup := ptrs[r.field(&cs)]; dup {
			t.Errorf("%s shares its Snapshot field with %s", r.name, counterTable[prev].name)
		}
		ptrs[r.field(&cs)] = k
		if !nameRE.MatchString(r.name) || (r.stem != "" && !nameRE.MatchString(r.stem)) {
			t.Errorf("counter %d: name %q / stem %q do not match %v", k, r.name, r.stem, nameRE)
		}
		if prev, dup := names[r.name]; dup {
			t.Errorf("name %q used by counters %d and %d", r.name, prev, k)
		}
		names[r.name] = k
		if sample := fmt.Sprintf("\n%s %d\n", r.series(), want); strings.Count(prom, sample) != 1 {
			t.Errorf("exposition has %d samples %q, want 1", strings.Count(prom, sample), sample)
		}
		if got := counts[r.name]; got != want {
			t.Errorf("Counts()[%q] = %d, want %d", r.name, got, want)
		}
	}
	if got := len(counts); got != int(NumCounters) {
		t.Errorf("Counts() has %d keys, want %d", got, NumCounters)
	}

	// Every int64 leaf of the nine count groups has a row, and no more:
	// a Snapshot field without a row, or a row without a field, fails.
	leaves := 0
	sv := reflect.ValueOf(&cs).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if sv.Type().Field(i).Name == "Latency" {
			continue
		}
		g := sv.Field(i)
		for j := 0; j < g.NumField(); j++ {
			f := g.Field(j)
			if f.Kind() != reflect.Int64 {
				t.Fatalf("%s.%s is %v, want int64", sv.Type().Field(i).Name, g.Type().Field(j).Name, f.Kind())
			}
			leaves++
			if _, ok := ptrs[f.Addr().Interface().(*int64)]; !ok {
				t.Errorf("Snapshot.%s.%s has no counterTable row", sv.Type().Field(i).Name, g.Type().Field(j).Name)
			}
		}
	}
	if leaves != int(NumCounters) {
		t.Errorf("Snapshot count groups hold %d int64 fields, counterTable %d rows", leaves, NumCounters)
	}

	if cs.Sub(cs) != (Snapshot{}) {
		t.Error("s.Sub(s) is not the zero Snapshot")
	}
	if cs.Sub(Snapshot{}) != cs {
		t.Error("s.Sub(Snapshot{}) != s")
	}
	child.Reset()
	if child.Snapshot() != (Snapshot{}) {
		t.Error("Reset left a counter set on the child")
	}
	if parent.Snapshot() != ps {
		t.Error("Reset of the child disturbed the parent")
	}
}

// TestAddAllocFree pins Add, which sits on every DHT-lookup, at zero
// allocations: bare, chained two deep, and on the nil receiver tcpnet
// relies on when no aggregate is configured.
func TestAddAllocFree(t *testing.T) {
	var root, mid, leaf Counters
	mid.Chain(&root)
	leaf.Chain(&mid)
	for name, c := range map[string]*Counters{"bare": &root, "chained": &leaf, "nil": nil} {
		if n := testing.AllocsPerRun(100, func() { c.Add(Lookups, 1) }); n != 0 {
			t.Errorf("%s: Add allocates %v per call", name, n)
		}
	}
	if s := root.Snapshot(); s.Lookup.Total == 0 || s.Lookup.Total != 2*mid.Snapshot().Lookup.Total {
		t.Errorf("measured Adds did not land: root %d, mid %d", s.Lookup.Total, mid.Snapshot().Lookup.Total)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(Lookups, 1)
				c.Add(MaintLookups, 1)
			}
		}()
	}
	wg.Wait()
	if s := c.Snapshot(); s.Lookup.Total != 8000 || s.Lookup.Maintenance != 8000 {
		t.Fatalf("Snapshot = %+v", s)
	}
}

func TestCountersChain(t *testing.T) {
	var root, a, b Counters
	a.Chain(&root)
	b.Chain(&root)
	a.Add(Lookups, 3)
	b.Add(Lookups, 4)
	a.Add(Splits, 1)
	a.ObserveOp(OpGet, time.Millisecond, false)
	a.AddPhaseLookups(OpGet, PhaseProbe, 2)
	if got := a.Snapshot().Lookup.Total; got != 3 {
		t.Fatalf("child a Lookup.Total = %d, want 3", got)
	}
	rs := root.Snapshot()
	if rs.Lookup.Total != 7 || rs.Lookup.Splits != 1 {
		t.Fatalf("root snapshot = %+v", rs.Lookup)
	}
	if g := rs.Latency.Ops[OpGet]; g.Count != 1 || g.Phases[PhaseProbe] != 2 {
		t.Fatalf("root OpGet stats = %+v", g)
	}
	// Resetting a child must not disturb what the root already absorbed.
	a.Reset()
	if got := root.Snapshot().Lookup.Total; got != 7 {
		t.Fatalf("root after child reset = %d, want 7", got)
	}
}

func TestObserveOp(t *testing.T) {
	var c Counters
	c.ObserveOp(OpInsert, 2*time.Millisecond, false)
	c.ObserveOp(OpInsert, 4*time.Millisecond, true)
	c.ObserveOp(OpRange, time.Millisecond, false)
	s := c.Snapshot()
	ins := s.Latency.Ops[OpInsert]
	if ins.Count != 2 || ins.Errors != 1 || ins.Hist.Count() != 2 {
		t.Fatalf("insert stats = %+v", ins)
	}
	if got := s.Latency.Ops[OpRange].Count; got != 1 {
		t.Fatalf("range count = %d", got)
	}
	if mean := ins.Hist.Mean(); mean < 2*time.Millisecond || mean > 4*time.Millisecond {
		t.Fatalf("insert mean = %v", mean)
	}
}

func TestContextLabels(t *testing.T) {
	ctx := context.Background()
	if lb := LabelsFrom(ctx); lb != (Labels{}) {
		t.Fatalf("unlabelled ctx = %+v", lb)
	}
	ctx = WithOp(ctx, OpRange)
	ctx = WithPhase(ctx, PhaseForward)
	if lb := LabelsFrom(ctx); lb.Op != OpRange || lb.Phase != PhaseForward {
		t.Fatalf("labels = %+v", lb)
	}
	// Same phase again: no new context allocation.
	if ctx2 := WithPhase(ctx, PhaseForward); ctx2 != ctx {
		t.Fatal("WithPhase(same) allocated a new context")
	}
	// A new op scope resets the phase.
	if lb := LabelsFrom(WithOp(ctx, OpScrub)); lb.Op != OpScrub || lb.Phase != PhaseOther {
		t.Fatalf("WithOp labels = %+v", lb)
	}
	// BeginOp opens in the given phase; a WithPhase to it is then free.
	var c Counters
	opened, scope := c.BeginOp(context.Background(), OpGet, PhaseProbe)
	if lb := LabelsFrom(opened); lb != (Labels{OpGet, PhaseProbe}) {
		t.Fatalf("BeginOp labels = %+v", lb)
	}
	if WithPhase(opened, PhaseProbe) != opened {
		t.Fatal("WithPhase(the opening phase) allocated a new context")
	}
	scope.Done(nil)
	if g := c.Snapshot().Latency.Ops[OpGet]; g.Count != 1 || g.Errors != 0 {
		t.Fatalf("after Done: %+v", g)
	}
	// Labels outside the table's range travel too.
	odd := Labels{Op: NumOps + 1, Phase: -1}
	if lb := LabelsFrom(withLabels(ctx, odd)); lb != odd {
		t.Fatalf("out-of-range labels = %+v, want %+v", lb, odd)
	}
}

func TestOpPhaseStrings(t *testing.T) {
	if OpGet.String() != "get" || OpBulkLoad.String() != "bulkload" || Op(99).String() != "invalid" {
		t.Fatal("Op.String mismatch")
	}
	if PhaseProbe.String() != "probe" || PhaseRetry.String() != "retry" || Phase(-1).String() != "invalid" {
		t.Fatal("Phase.String mismatch")
	}
}

func TestCostAdd(t *testing.T) {
	c := Cost{Lookups: 2, Steps: 1}
	c.Add(Cost{Lookups: 3, Steps: 2})
	if c != (Cost{Lookups: 5, Steps: 3}) {
		t.Fatalf("Add = %+v", c)
	}
}
