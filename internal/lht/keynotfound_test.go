package lht

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"lht/internal/dht"
	"lht/internal/record"
)

// TestKeyNotFoundReadsAsBefore: the error of a miss is ErrKeyNotFound to
// errors.Is and reads byte for byte as the fmt.Errorf it replaces, from
// Search, SearchLinear and Delete alike.
func TestKeyNotFoundReadsAsBefore(t *testing.T) {
	for _, key := range []float64{0, 0.5, 0.1234567890123, 1e-9, 1, math.Nextafter(1, 0)} {
		err := error(keyNotFound(key))
		if want := fmt.Errorf("%w: %v", ErrKeyNotFound, key); err.Error() != want.Error() {
			t.Errorf("the miss of %v reads %q, want %q", key, err, want)
		}
		if !errors.Is(err, ErrKeyNotFound) {
			t.Errorf("the miss of %v is not ErrKeyNotFound", key)
		}
	}
	ix, err := New(dht.NewLocal(), Config{SplitThreshold: 8, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := ix.Insert(record.Record{Key: float64(i) / 40}); err != nil {
			t.Fatal(err)
		}
	}
	const absent = 0.3333
	want := fmt.Sprintf("lht: data key not found: %v", absent)
	_, _, searched := ix.Search(absent)
	_, _, linear := ix.SearchLinear(absent)
	_, deleted := ix.Delete(absent)
	for name, err := range map[string]error{"Search": searched, "SearchLinear": linear, "Delete": deleted} {
		if !errors.Is(err, ErrKeyNotFound) || err.Error() != want {
			t.Errorf("%s of an absent key: %v, want %q", name, err, want)
		}
	}
}
