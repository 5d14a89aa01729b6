package lht

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lht/internal/dht"
	"lht/internal/metrics"
	"lht/internal/record"
)

// attributionMatrix is a Snapshot's lookup matrix: DHT-lookups per
// operation class (row) and algorithm phase (column).
type attributionMatrix [metrics.NumOps][metrics.NumPhases]int64

func (m attributionMatrix) String() string {
	var b strings.Builder
	for op := range m {
		fmt.Fprintf(&b, "\t%-9s %v\n", metrics.Op(op), m[op])
	}
	return b.String()
}

// TestAttributionMatrixGolden runs one scripted sequence over dht.Local
// and pins the lookup matrix it leaves, cell by cell: a torn split that
// a Get repairs, Gets of present and absent keys, inserts that split,
// deletes that merge, a Range, a Scan, Min, Max and a Scrub. The values
// are the ones the sequence left when each operation opened at
// PhaseOther and switched phase inside, so any change to where an
// operation's scope opens must attribute every lookup as before.
//
// Since a sweep or walk enters a branch as deep as the leaf beside it
// under f_n(branch) first (enterBeside), four cells read one lookup more,
// in both arms: the deletes leave the tree #00, #0100, #01010, #010110,
// #010111, #0110, #0111, where the siblings #01 of #00, #0101 of #0100 and
// #01011 of #01010 are internal, and each guess there fetches the
// branch's far-end leaf before its own key. Range (forward 4 → 5) guesses
// once at #01; Min (probe 2 → 3) walks from the empty #00 through the same
// guess; Scan (forward 5 → 6) guesses wrong at #0101 and #01011 and saves
// the miss at #010111's own label; Scrub (probe 16 → 17) guesses wrong at
// all three and saves the misses at #010111 and #0111.
func TestAttributionMatrixGolden(t *testing.T) {
	// Columns: other, probe, forward, split, merge, repair, retry.
	for _, tc := range []struct {
		name  string
		cache bool
		want  attributionMatrix
	}{
		{"cache off", false, attributionMatrix{
			metrics.OpGet:    {0, 23, 0, 0, 0, 1, 0},
			metrics.OpInsert: {15, 43, 0, 8, 0, 0, 0},
			metrics.OpDelete: {10, 22, 0, 0, 15, 0, 0},
			metrics.OpRange:  {0, 1, 5, 0, 0, 0, 0},
			metrics.OpMin:    {0, 3, 0, 0, 0, 0, 0},
			metrics.OpMax:    {0, 1, 0, 0, 0, 0, 0},
			metrics.OpScan:   {0, 1, 6, 0, 0, 0, 0},
			metrics.OpScrub:  {0, 17, 0, 0, 0, 0, 0},
		}},
		{"cache on", true, attributionMatrix{
			metrics.OpGet:    {0, 10, 0, 0, 0, 1, 0},
			metrics.OpInsert: {15, 15, 0, 8, 0, 0, 0},
			metrics.OpDelete: {10, 10, 0, 0, 15, 0, 0},
			metrics.OpRange:  {0, 1, 5, 0, 0, 0, 0},
			metrics.OpMin:    {0, 3, 0, 0, 0, 0, 0},
			metrics.OpMax:    {0, 1, 0, 0, 0, 0, 0},
			metrics.OpScan:   {0, 1, 6, 0, 0, 0, 0},
			metrics.OpScrub:  {0, 17, 0, 0, 0, 0, 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			cfg := Config{SplitThreshold: 4, MergeThreshold: 4, Depth: 20, LeafCache: tc.cache}
			// A writer tears the root leaf's split: it halts after the
			// remote half "#0" lands, before the commit.
			base := dht.NewLocal()
			crash := dht.WithCrashPoints(base, dht.CrashRule{
				Op:    dht.OpCreateIf,
				Key:   func(k string) bool { return k == "#0" },
				N:     1,
				After: true,
				Halt:  true,
			})
			w, err := New(crash, cfg)
			if err != nil {
				t.Fatal(err)
			}
			grow := []float64{0.1, 0.3, 0.7}
			for i, k := range grow {
				_, err := w.Insert(record.Record{Key: k})
				if last := i == len(grow)-1; !last && err != nil || last && !errors.Is(err, dht.ErrCrashed) {
					t.Fatalf("insert %g = %v; want only the last one's split to crash", k, err)
				}
			}
			ix, err := New(base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			must := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			_, _, err = ix.Search(0.1)
			must("Search(0.1) over the tear", err)
			if n := ix.Metrics().Repair.TornSplits; n != 1 {
				t.Fatalf("the Get over the tear repaired %d torn splits, want 1", n)
			}
			for _, k := range []float64{0.1, 0.3, 0.7} {
				_, _, err := ix.Search(k)
				must(fmt.Sprintf("Search(%g)", k), err)
			}
			if _, _, err := ix.Search(0.5); !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("Search(0.5) = %v, want ErrKeyNotFound", err)
			}
			_, _, err = ix.LookupBucket(0.3)
			must("LookupBucket(0.3)", err)
			more := []float64{0.05, 0.15, 0.2, 0.25, 0.35, 0.4, 0.45, 0.55, 0.6, 0.65, 0.72, 0.74, 0.8, 0.85, 0.9}
			for _, k := range more {
				_, err := ix.Insert(record.Record{Key: k})
				must(fmt.Sprintf("Insert(%g)", k), err)
			}
			for _, k := range []float64{0.05, 0.4, 0.72} {
				_, _, err := ix.SearchContext(ctx, k)
				must(fmt.Sprintf("Search(%g)", k), err)
			}
			for _, k := range []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.55} {
				_, err := ix.Delete(k)
				must(fmt.Sprintf("Delete(%g)", k), err)
			}
			_, _, err = ix.Range(0.2, 0.75)
			must("Range", err)
			_, _, err = ix.Scan(0.5, 6)
			must("Scan", err)
			_, _, err = ix.Min()
			must("Min", err)
			_, _, err = ix.Max()
			must("Max", err)
			_, err = ix.Scrub(ctx)
			must("Scrub", err)

			s := ix.Metrics()
			if s.Lookup.Splits == 0 || s.Lookup.Merges == 0 {
				t.Fatalf("the sequence did %d splits and %d merges, want both", s.Lookup.Splits, s.Lookup.Merges)
			}
			var got attributionMatrix
			for op := range got {
				got[op] = s.Latency.Ops[op].Phases
			}
			if got != tc.want {
				t.Errorf("lookup matrix (op × phase):\n%vwant\n%v", got, tc.want)
			}
		})
	}
}
