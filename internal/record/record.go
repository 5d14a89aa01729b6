// Package record defines the data unit indexed by LHT and PHT.
//
// A record is identified by a distinct data key delta in [0, 1) (paper
// section 3.1) and carries an opaque payload. Applications map their own
// attribute domains (timestamps, prices, coordinates via a space-filling
// curve) into [0, 1) before indexing.
package record

import (
	"cmp"
	"fmt"
	"slices"
)

// Record is one indexed data unit.
type Record struct {
	// Key is the data key delta in [0, 1). Records are unique by Key.
	Key float64
	// Value is the application payload; the index never interprets it.
	// A value read back from an index is read-only: it shares memory with
	// the bucket it came from (DecodeList hands out sub-slices of one
	// buffer).
	Value []byte
}

// String renders the record for logs and test failures.
func (r Record) String() string {
	return fmt.Sprintf("{%g: %q}", r.Key, r.Value)
}

// SortByKey sorts records in ascending key order in place. It is a
// generic pdqsort (no reflection), linear on input already in order and
// not stable: records with equal keys end up in no particular order.
func SortByKey(rs []Record) {
	slices.SortFunc(rs, func(a, b Record) int { return cmp.Compare(a.Key, b.Key) })
}

// FindByKey returns the index of the record with the given key in rs, or
// -1 if absent. rs need not be sorted.
func FindByKey(rs []Record, key float64) int {
	for i := range rs {
		if rs[i].Key == key {
			return i
		}
	}
	return -1
}

// FilterRange returns the records whose keys fall in [lo, hi), appended to
// dst (which may be nil).
func FilterRange(dst, rs []Record, lo, hi float64) []Record {
	for _, r := range rs {
		if r.Key >= lo && r.Key < hi {
			dst = append(dst, r)
		}
	}
	return dst
}
