package lht_test

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"lht"
)

func TestPublicAPIQuickstart(t *testing.T) {
	ix, err := lht.New(lht.NewLocalDHT(), lht.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(lht.Record{Key: 0.42, Value: []byte("answer")}); err != nil {
		t.Fatal(err)
	}
	rec, cost, err := ix.Get(0.42)
	if err != nil || string(rec.Value) != "answer" {
		t.Fatalf("Get = %v, %v", rec, err)
	}
	if cost.Lookups == 0 {
		t.Error("Get should cost lookups")
	}
	if _, _, err := ix.Get(0.99); !errors.Is(err, lht.ErrKeyNotFound) {
		t.Fatalf("Get absent = %v", err)
	}
	if _, err := ix.Delete(0.42); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Min(); !errors.Is(err, lht.ErrEmpty) {
		t.Fatalf("Min on empty = %v", err)
	}
	if _, _, err := ix.Range(0.5, 0.4); !errors.Is(err, lht.ErrBadRange) {
		t.Fatalf("bad range = %v", err)
	}
}

func TestPublicAPIOverChord(t *testing.T) {
	ring, err := lht.NewChordDHT(8, lht.ChordConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := lht.New(ring, lht.Config{SplitThreshold: 8, MergeThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	keys := make([]float64, 200)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(lht.Record{Key: keys[i]}); err != nil {
			t.Fatal(err)
		}
	}
	sort.Float64s(keys)
	if r, _, err := ix.Min(); err != nil || r.Key != keys[0] {
		t.Fatalf("Min = %v, %v", r, err)
	}
	if r, _, err := ix.Max(); err != nil || r.Key != keys[len(keys)-1] {
		t.Fatalf("Max = %v, %v", r, err)
	}
	recs, _, err := ix.Range(0.25, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, k := range keys {
		if k >= 0.25 && k < 0.75 {
			want++
		}
	}
	if len(recs) != want {
		t.Fatalf("Range = %d records, want %d", len(recs), want)
	}
	if n, err := ix.Count(); err != nil || n != len(keys) {
		t.Fatalf("Count = %d, %v", n, err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := ix.Metrics()
	if s.Lookup.Splits == 0 || s.Lookup.Total == 0 {
		t.Errorf("metrics look dead: %+v", s)
	}
	if mean, n := ix.AlphaMean(); n == 0 || mean <= 0 {
		t.Errorf("AlphaMean = %v, %d", mean, n)
	}
	leaves, err := ix.Leaves()
	if err != nil || len(leaves) < 2 {
		t.Fatalf("Leaves = %d, %v", len(leaves), err)
	}
	if ix.Config().SplitThreshold != 8 {
		t.Error("Config accessor broken")
	}
}

func TestPublicAPIOverKademlia(t *testing.T) {
	nw, err := lht.NewKademliaDHT(8, lht.KademliaConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := lht.New(nw, lht.Config{SplitThreshold: 8, MergeThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := ix.Insert(lht.Record{Key: float64(i) / 128}); err != nil {
			t.Fatal(err)
		}
	}
	recs, _, err := ix.Range(0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty range result")
	}
}

func TestRegisterGobTypes(t *testing.T) {
	// Double registration must not panic (gob panics on conflicting
	// registrations only).
	lht.RegisterGobTypes()
	lht.RegisterGobTypes()
}
