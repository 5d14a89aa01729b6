package lht

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/record"
	"lht/internal/workload"
)

// entryTally is a substrate that tallies, over one query at a time, the
// gets that found nothing new: those that missed, and those that fetched
// a leaf the query had fetched before. It hides any batch plane, so every
// get of a round passes through Get.
type entryTally struct {
	dht.DHT
	gets, misses, repeats int
	seen                  map[bitlabel.Label]bool
}

func (e *entryTally) Get(ctx context.Context, key string) (dht.Value, error) {
	v, err := e.DHT.Get(ctx, key)
	e.gets++
	switch b, ok := v.(*Bucket); {
	case errors.Is(err, dht.ErrNotFound):
		e.misses++
	case ok && e.seen[b.Label]:
		e.repeats++
	case ok:
		e.seen[b.Label] = true
	}
	return v, err
}

// reset starts a new query's tally.
func (e *entryTally) reset() {
	e.gets, e.misses, e.repeats = 0, 0, 0
	clear(e.seen)
}

// TestBranchEntryAtTheLedgersShape replays range-scan's shape in process
// over dht.Local: 2^17 Gaussian keys bulk-loaded at the default
// configuration (θ = 100, D = 20), then 9 000 ranges of span 0.005, the
// i-th starting in the i-th 9 000th of [0, 0.995), in seeded order, at
// two seeds. Every range returns exactly the records a sorted copy of the
// key set holds in it. A get that misses, or that fetches a leaf the
// query has fetched already (a wrong guess's far-end leaf, met again from
// its branch's near end), is an entry into a partially covered branch
// that wasted its lookup: 0.82 of them an op when every such branch was
// tried under its own key first, at most 0.15 since the depth of the leaf
// beside the branch picks the key. A leaf walk takes one such entry a
// step: Leaves makes at most 1.10 lookups a leaf, where it made 1.50.
func TestBranchEntryAtTheLedgersShape(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			branchEntryAtTheLedgersShape(t, seed)
		})
	}
}

func branchEntryAtTheLedgersShape(t *testing.T, seed int64) {
	const (
		ranges = 9000
		span   = 0.005
	)
	local := dht.NewLocal()
	cfg := Config{SplitThreshold: 100, Depth: 20}
	builder, err := New(local, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := workload.NewGenerator(workload.Gaussian, seed).Records(1 << 17)
	if _, err := builder.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	sorted := slices.Clone(recs)
	record.SortByKey(sorted)
	keys := make([]float64, len(sorted))
	for i, r := range sorted {
		keys[i] = r.Key
	}

	tally := &entryTally{DHT: local, seen: map[bitlabel.Label]bool{}}
	ix, err := New(tally, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var lookups, steps, wasted int
	for _, stratum := range rng.Perm(ranges) {
		lo := (float64(stratum) + rng.Float64()) / ranges * (1 - span)
		hi := lo + span
		tally.reset()
		got, cost, err := ix.Range(lo, hi)
		if err != nil {
			t.Fatalf("Range(%v, %v): %v", lo, hi, err)
		}
		if cost.Lookups != tally.gets {
			t.Fatalf("Range(%v, %v) charged %d lookups for %d gets", lo, hi, cost.Lookups, tally.gets)
		}
		record.SortByKey(got)
		want := sorted[sort.SearchFloat64s(keys, lo):sort.SearchFloat64s(keys, hi)]
		if !slices.EqualFunc(got, want, func(a, b record.Record) bool {
			return a.Key == b.Key && string(a.Value) == string(b.Value)
		}) {
			t.Fatalf("Range(%v, %v) returned %d records, the sorted keys hold %d", lo, hi, len(got), len(want))
		}
		lookups, steps = lookups+cost.Lookups, steps+cost.Steps
		wasted += tally.misses + tally.repeats
	}
	perOp := float64(wasted) / ranges
	t.Logf("%.3f lookups and %.3f steps an op, %.3f lookups wasted on a miss or a leaf fetched again", float64(lookups)/ranges, float64(steps)/ranges, perOp)
	if perOp > 0.15 {
		t.Errorf("%.3f lookups an op missed or fetched a leaf again, want at most 0.15", perOp)
	}

	tally.reset()
	leaves, err := ix.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	perLeaf := float64(tally.gets) / float64(len(leaves))
	t.Logf("Leaves: %d leaves, %.3f lookups a leaf", len(leaves), perLeaf)
	if perLeaf > 1.10 {
		t.Errorf("Leaves made %.3f lookups a leaf, want at most 1.10", perLeaf)
	}
	if err := builder.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// plantLeaves stores a hand-built tree in a fresh dht.Local: each leaf,
// by label, under its name, holding records at the given keys.
func plantLeaves(t *testing.T, leaves map[string][]float64) *dht.Local {
	t.Helper()
	local := dht.NewLocal()
	for l, keys := range leaves {
		label := bitlabel.MustParse(l)
		b := &Bucket{Label: label}
		for _, k := range keys {
			b.Records = append(b.Records, record.Record{Key: k, Value: []byte(l)})
		}
		if err := local.Put(context.Background(), label.Name().Key(), b); err != nil {
			t.Fatal(err)
		}
	}
	return local
}

// splitBeforeGet is a substrate that runs split once, just before it
// answers the first get of key.
type splitBeforeGet struct {
	dht.DHT
	key   string
	split func()
}

func (s *splitBeforeGet) Get(ctx context.Context, key string) (dht.Value, error) {
	if f := s.split; key == s.key && f != nil {
		s.split = nil
		f()
	}
	return s.DHT.Get(ctx, key)
}

// TestEntryMeetsATornOrMovedBranch splits beta, a leaf holding three
// records at θ = 4, with a writer's insert, while a Range, a Scan and a
// Scrub, each over a tree of its own, enter it. The split halts at its
// remote put (dht.CrashPoints), before or after it lands, leaving beta
// torn under f_n(beta); or it completes between the moment the query
// names beta and its get of f_n(beta). Either way that get meets beta's
// far half, which keeps f_n(beta), repaired or not, and must go on to
// beta's near half under beta's own key: each query returns every record
// once, and the tree is sound after it.
//
//   - beta = #0101 is the sibling of #0100, where Range(0.5, 0.74) and
//     Scan(0.5, …) start and from which Scrub's walk steps right: it is
//     entered by guess, under f_n(beta) = #010 before #0101.
//   - beta = #01 is two levels above #0011, from which the walks step
//     right: they try #01 first, it misses, and the walk step that then
//     fetches the far half #011 under #0 runs once more from #01. Range
//     enters #01 from below as case 3's descent, and forwards from the far
//     half back into the near one.
func TestEntryMeetsATornOrMovedBranch(t *testing.T) {
	const (
		tornBefore   = "torn before the remote put"
		tornAfter    = "torn after the remote put"
		splitBetween = "split between the query's gets"
	)
	type query struct {
		name string
		run  func(*Index) ([]float64, error) // the keys returned, sorted
		want []float64
	}
	keysOf := func(recs []record.Record, _ Cost, err error) ([]float64, error) {
		keys := make([]float64, len(recs))
		for i, r := range recs {
			keys[i] = r.Key
		}
		slices.Sort(keys)
		return keys, err
	}
	rangeQ := func(lo, hi float64, want ...float64) query {
		return query{fmt.Sprintf("Range(%v, %v)", lo, hi), func(ix *Index) ([]float64, error) {
			return keysOf(ix.Range(lo, hi))
		}, want}
	}
	scanQ := func(from float64, want ...float64) query {
		return query{fmt.Sprintf("Scan(%v, 100)", from), func(ix *Index) ([]float64, error) {
			return keysOf(ix.Scan(from, 100))
		}, want}
	}
	scrubQ := func(records int) query {
		return query{"Scrub", func(ix *Index) ([]float64, error) {
			rep, err := ix.Scrub(context.Background())
			if err == nil && rep.Records != records {
				err = fmt.Errorf("%d leaves and %d records walked, want %d records", rep.Leaves, rep.Records, records)
			}
			return nil, err
		}, nil}
	}
	for _, tc := range []struct {
		name       string
		tree       map[string][]float64
		beta       string  // the leaf the writer splits; its near half's name, the split's remote put
		insert     float64 // the writer's insert, which splits beta
		guess      string  // f_n(beta), where the split's far half stays
		guessFirst bool    // every query tries guess before beta
		queries    []query
	}{
		{
			name: "sibling #0101", beta: "#0101", insert: 0.72, guess: "#010", guessFirst: true,
			tree: map[string][]float64{"#000": {0.1}, "#001": {0.3}, "#0100": {0.55}, "#0101": {0.63, 0.66, 0.70}, "#011": {0.8, 0.9}},
			queries: []query{
				rangeQ(0.5, 0.74, 0.55, 0.63, 0.66, 0.70, 0.72),
				scanQ(0.5, 0.55, 0.63, 0.66, 0.70, 0.72, 0.8, 0.9),
				scrubQ(9),
			},
		},
		{
			name: "shallower #01", beta: "#01", insert: 0.9, guess: "#0",
			tree: map[string][]float64{"#000": {0.1}, "#0010": {0.3}, "#0011": {0.4}, "#01": {0.55, 0.6, 0.8}},
			queries: []query{
				rangeQ(0.3, 0.7, 0.3, 0.4, 0.55, 0.6),
				scanQ(0.3, 0.3, 0.4, 0.55, 0.6, 0.8, 0.9),
				scrubQ(7),
			},
		},
	} {
		for _, split := range []string{tornBefore, tornAfter, splitBetween} {
			if split == tornAfter && !tc.guessFirst {
				continue // beta's own key, tried first, holds the near half: no query meets the tear
			}
			for _, q := range tc.queries {
				t.Run(fmt.Sprintf("%s/%s/%s", tc.name, split, q.name), func(t *testing.T) {
					local := plantLeaves(t, tc.tree)
					var under dht.DHT = local
					cfg := Config{SplitThreshold: 4, Depth: 20}
					if split != splitBetween {
						w, err := New(dht.WithCrashPoints(local, dht.CrashRule{
							Op:    dht.OpCreateIf,
							Key:   func(k string) bool { return k == tc.beta },
							N:     1,
							After: split == tornAfter,
							Halt:  true,
						}), cfg)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := w.Insert(record.Record{Key: tc.insert}); !errors.Is(err, dht.ErrCrashed) {
							t.Fatalf("the split of %s = %v, want it halted", tc.beta, err)
						}
					} else {
						w, err := New(local, cfg)
						if err != nil {
							t.Fatal(err)
						}
						under = &splitBeforeGet{DHT: local, key: tc.guess, split: func() {
							if _, err := w.Insert(record.Record{Key: tc.insert}); err != nil {
								t.Errorf("the split of %s: %v", tc.beta, err)
							}
						}}
					}
					d := &recordingDHT{DHT: under}
					ix, err := New(d, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := q.run(ix)
					if err != nil || !slices.Equal(got, q.want) {
						t.Errorf("%s = %v, %v; want %v", q.name, got, err, q.want)
					}
					probes := d.probes()
					if guess, own := slices.Index(probes, tc.guess), slices.Index(probes, tc.beta); tc.guessFirst && (guess < 0 || own >= 0 && own < guess) {
						t.Errorf("%s probed %v: want the guess %s before %s", q.name, probes, tc.guess, tc.beta)
					}
					if n := ix.Metrics().Repair.TornSplits; split != splitBetween && n != 1 {
						t.Errorf("%s repaired %d torn splits, want 1", q.name, n)
					}
					if err := ix.CheckInvariants(); err != nil {
						t.Errorf("after %s: %v", q.name, err)
					}
				})
			}
		}
	}
}
