//go:build !race

package lht

import (
	"testing"

	"lht/internal/dht"
	"lht/internal/record"
)

// TestMissAllocatesOnlyItsError: a Search that misses allocates one more
// time than one that hits the same leaf, the error, whose message is
// built only if someone reads it. (Not under the race detector, which
// allocates on its own.)
func TestMissAllocatesOnlyItsError(t *testing.T) {
	ix, err := New(dht.NewLocal(), Config{SplitThreshold: 8, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := ix.Insert(record.Record{Key: float64(i) / 40}); err != nil {
			t.Fatal(err)
		}
	}
	const present, absent = 0.325, 0.3333 // one leaf holds both
	hit := testing.AllocsPerRun(100, func() {
		if _, _, err := ix.Search(present); err != nil {
			t.Fatal(err)
		}
	})
	miss := testing.AllocsPerRun(100, func() {
		if _, _, err := ix.Search(absent); err == nil {
			t.Fatal("found an absent key")
		}
	})
	if miss-hit != 1 {
		t.Errorf("a miss allocates %v times, a hit %v: want exactly one more", miss, hit)
	}
}
