package lht

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/record"
)

// substrateImage captures every stored bucket of a Local substrate as
// encoded bytes, keyed by storage key — the ground truth two runs are
// compared on.
func substrateImage(t *testing.T, d *dht.Local) map[string][]byte {
	t.Helper()
	ctx := context.Background()
	img := make(map[string][]byte)
	for _, k := range d.Keys() {
		v, err := d.Get(ctx, k)
		if err != nil {
			t.Fatalf("image %q: %v", k, err)
		}
		b, ok := v.(*Bucket)
		if !ok {
			t.Fatalf("image %q: %T, not a bucket", k, v)
		}
		enc, err := EncodeBucket(b)
		if err != nil {
			t.Fatalf("encode %q: %v", k, err)
		}
		img[k] = enc
	}
	return img
}

func diffImages(got, want map[string][]byte) string {
	keys := make(map[string]bool)
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var diffs []string
	for _, k := range sorted {
		g, gok := got[k]
		w, wok := want[k]
		switch {
		case !gok:
			diffs = append(diffs, fmt.Sprintf("missing key %q", k))
		case !wok:
			diffs = append(diffs, fmt.Sprintf("extra key %q", k))
		case !bytes.Equal(g, w):
			diffs = append(diffs, fmt.Sprintf("key %q differs", k))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	return fmt.Sprint(diffs)
}

// splitWorkload drives a fresh index on d up to (and through) the first
// split of the tree root: three inserts, the third of which saturates the
// root leaf at theta=4. It returns the insert error of the splitting
// insert (nil on a healthy substrate).
var splitKeys = []float64{0.1, 0.3, 0.7}

func splitWorkload(t *testing.T, d dht.DHT) error {
	t.Helper()
	ix, err := New(d, Config{SplitThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range splitKeys {
		_, err := ix.Insert(record.Record{Key: k, Value: []byte{byte(i)}})
		if i < len(splitKeys)-1 && err != nil {
			t.Fatalf("insert %d (%g): %v", i, k, err)
		}
		if i == len(splitKeys)-1 {
			return err
		}
	}
	return nil
}

// TestTornSplitRepairedByLookup crashes a split in each of its two
// windows — before the remote put, and after the remote put but before
// the local write-back — and verifies that a fresh client's next lookup
// detects the intent, repairs it in-line, answers correctly, and leaves
// the substrate byte-identical to a run that never crashed.
func TestTornSplitRepairedByLookup(t *testing.T) {
	// Oracle: the same workload against a healthy substrate.
	oracleDHT := dht.NewLocal()
	if err := splitWorkload(t, oracleDHT); err != nil {
		t.Fatalf("oracle workload: %v", err)
	}
	oracle := substrateImage(t, oracleDHT)

	for _, tc := range []struct {
		name  string
		after bool
	}{
		// The split pushes the remote half out with a create-if-absent to
		// "#0" (write-backs of the root leaf go to "#").
		{"crash-before-remote-put", false},
		{"crash-after-remote-put", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := dht.NewLocal()
			crash := dht.WithCrashPoints(base, dht.CrashRule{
				Op:    dht.OpCreateIf,
				Key:   func(k string) bool { return k == "#0" },
				N:     1,
				After: tc.after,
				Halt:  true,
			})
			err := splitWorkload(t, crash)
			if !errors.Is(err, dht.ErrCrashed) {
				t.Fatalf("splitting insert = %v, want ErrCrashed", err)
			}
			if !crash.Crashed() {
				t.Fatal("writer should be halted")
			}

			// The tree is torn but must remain fully queryable: a fresh
			// client repairs in-line on first contact with the marker.
			ix, err := New(base, Config{SplitThreshold: 4, Depth: 20})
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range splitKeys {
				rec, _, err := ix.Search(k)
				if err != nil {
					t.Fatalf("Search(%g) on torn tree: %v", k, err)
				}
				if len(rec.Value) != 1 || rec.Value[0] != byte(i) {
					t.Fatalf("Search(%g) = %v, want value [%d]", k, rec.Value, i)
				}
			}
			s := ix.Metrics()
			if s.Repair.TornSplits != 1 || s.Repair.Repairs != 1 {
				t.Fatalf("TornSplits=%d Repairs=%d, want 1, 1", s.Repair.TornSplits, s.Repair.Repairs)
			}

			// The repaired substrate is byte-identical to the oracle.
			if d := diffImages(substrateImage(t, base), oracle); d != "" {
				t.Fatalf("repaired tree differs from never-crashed oracle: %s", d)
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTornSplitRepairedByScrub is the offline counterpart: no query
// traffic touches the tear; one Scrub pass finds and repairs it, again
// byte-identical to the never-crashed oracle.
func TestTornSplitRepairedByScrub(t *testing.T) {
	oracleDHT := dht.NewLocal()
	if err := splitWorkload(t, oracleDHT); err != nil {
		t.Fatalf("oracle workload: %v", err)
	}
	oracle := substrateImage(t, oracleDHT)

	base := dht.NewLocal()
	crash := dht.WithCrashPoints(base, dht.CrashRule{
		Op:   dht.OpCreateIf,
		Key:  func(k string) bool { return k == "#0" },
		N:    1,
		Halt: true,
	})
	if err := splitWorkload(t, crash); !errors.Is(err, dht.ErrCrashed) {
		t.Fatalf("splitting insert = %v, want ErrCrashed", err)
	}

	ix, err := New(base, Config{SplitThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ix.Scrub(context.Background())
	if err != nil {
		t.Fatalf("Scrub: %v\n%s", err, rep)
	}
	if rep.TornSplits != 1 || rep.Repairs != 1 {
		t.Fatalf("report = %s; want 1 torn split, 1 repair", rep)
	}
	if d := diffImages(substrateImage(t, base), oracle); d != "" {
		t.Fatalf("scrubbed tree differs from never-crashed oracle: %s", d)
	}
	// A second pass finds a consistent tree.
	rep, err = ix.Scrub(context.Background())
	if err != nil || !rep.Clean() {
		t.Fatalf("second Scrub = %v, %s; want clean", err, rep)
	}
	if got := ix.Metrics().Repair.ScrubLookups; got <= 0 {
		t.Fatalf("ScrubLookups = %d, want > 0", got)
	}
}

// mergeWorkload drives a tree through one split, then deletes the lone
// right-half record so the leaves re-merge. Returns the delete error.
func mergeWorkload(t *testing.T, d dht.DHT) error {
	t.Helper()
	ix, err := New(d, Config{SplitThreshold: 4, MergeThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range splitKeys {
		if _, err := ix.Insert(record.Record{Key: k, Value: []byte{byte(i)}}); err != nil {
			t.Fatalf("insert %d (%g): %v", i, k, err)
		}
	}
	// 0.7 is alone in leaf #01 (stored under "#0"); deleting it drops the
	// leaf's weight below the merge threshold.
	_, err = ix.Delete(0.7)
	return err
}

// TestTornMergeRepaired crashes a merge in both of its windows — before
// and after the obsolete child's removal — and verifies lookup-driven
// repair rolls the merge forward without losing a record.
func TestTornMergeRepaired(t *testing.T) {
	oracleDHT := dht.NewLocal()
	if err := mergeWorkload(t, oracleDHT); err != nil {
		t.Fatalf("oracle workload: %v", err)
	}
	oracle := substrateImage(t, oracleDHT)

	for _, tc := range []struct {
		name  string
		after bool
	}{
		// The merged bucket lands under "#" first; removing the obsolete
		// child under "#0" is the only conditional remove the workload
		// issues.
		{"crash-before-remove", false},
		{"crash-after-remove", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := dht.NewLocal()
			crash := dht.WithCrashPoints(base, dht.CrashRule{
				Op:    dht.OpRemoveIf,
				N:     1,
				After: tc.after,
				Halt:  true,
			})
			if err := mergeWorkload(t, crash); !errors.Is(err, dht.ErrCrashed) {
				t.Fatalf("merging delete = %v, want ErrCrashed", err)
			}

			ix, err := New(base, Config{SplitThreshold: 4, MergeThreshold: 4, Depth: 20})
			if err != nil {
				t.Fatal(err)
			}
			// Both surviving records answer; the deleted one stays deleted
			// (its tombstone is the merged bucket's record set).
			for i, k := range splitKeys[:2] {
				rec, _, err := ix.Search(k)
				if err != nil || rec.Value[0] != byte(i) {
					t.Fatalf("Search(%g) = %v, %v", k, rec, err)
				}
			}
			if _, _, err := ix.Search(0.7); !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("Search(0.7) = %v, want ErrKeyNotFound", err)
			}
			s := ix.Metrics()
			if s.Repair.TornMerges != 1 || s.Repair.Repairs != 1 {
				t.Fatalf("TornMerges=%d Repairs=%d, want 1, 1", s.Repair.TornMerges, s.Repair.Repairs)
			}
			if d := diffImages(substrateImage(t, base), oracle); d != "" {
				t.Fatalf("repaired tree differs from never-crashed oracle: %s", d)
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTornMergeRollsBackWhenChildEvolved stages the race the PeerEpoch
// field exists for: a merge crashed mid-flight, and before anyone
// repaired it another client wrote to the obsolete child. Rolling the
// merge forward would discard that write; repair must roll back instead,
// shrinking the merged bucket to the surviving child and leaving the
// evolved child in place.
func TestTornMergeRollsBackWhenChildEvolved(t *testing.T) {
	ctx := context.Background()
	base := dht.NewLocal()

	// Hand-build the torn state. The merged bucket under "#" says: I
	// absorbed child #01 (then at epoch 3), remove it from "#0". But the
	// stored child has moved on to epoch 4 with an extra record.
	merged := &Bucket{
		Label: bitlabel.MustParse("#0"),
		Records: []record.Record{
			{Key: 0.1, Value: []byte{0}},
			{Key: 0.7, Value: []byte{2}},
		},
		Epoch:   5,
		Pending: Pending{Kind: PendingMerge, RemoveKey: "#0", PeerEpoch: 3},
	}
	evolved := &Bucket{
		Label: bitlabel.MustParse("#01"),
		Records: []record.Record{
			{Key: 0.7, Value: []byte{2}},
			{Key: 0.9, Value: []byte{9}},
		},
		Epoch: 4,
	}
	if err := base.Put(ctx, "#", merged); err != nil {
		t.Fatal(err)
	}
	if err := base.Put(ctx, "#0", evolved); err != nil {
		t.Fatal(err)
	}

	ix, err := New(base, Config{SplitThreshold: 4, MergeThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Touching the torn bucket repairs it; the evolved child's write must
	// survive.
	for _, want := range []struct {
		key float64
		val byte
	}{{0.1, 0}, {0.7, 2}, {0.9, 9}} {
		rec, _, err := ix.Search(want.key)
		if err != nil || rec.Value[0] != want.val {
			t.Fatalf("Search(%g) = %v, %v; want value [%d]", want.key, rec, err, want.val)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The rollback shrank "#" to the surviving child #00.
	v, err := base.Get(ctx, "#")
	if err != nil {
		t.Fatal(err)
	}
	kb := v.(*Bucket)
	if kb.Label != bitlabel.MustParse("#00") || len(kb.Records) != 1 || kb.Torn() {
		t.Fatalf("bucket under # after rollback = %s, want leaf #00 with 1 record", kb)
	}
}

// TestScrubRemovesOrphan verifies the shadow probe: a stale pre-merge
// child resurrected under a live leaf's own label key (as non-graceful
// churn can do) is detected by epoch order and removed.
func TestScrubRemovesOrphan(t *testing.T) {
	ctx := context.Background()
	base := dht.NewLocal()
	if err := mergeWorkload(t, base); err != nil {
		t.Fatal(err)
	}
	// Resurrect the pre-merge child: an old replica of leaf #01 reappears
	// under "#0" — the live leaf #0's own label key.
	orphan := &Bucket{
		Label:   bitlabel.MustParse("#01"),
		Records: []record.Record{{Key: 0.7, Value: []byte{2}}},
		Epoch:   1,
	}
	if err := base.Put(ctx, "#0", orphan); err != nil {
		t.Fatal(err)
	}

	ix, err := New(base, Config{SplitThreshold: 4, MergeThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ix.Scrub(ctx)
	if err != nil {
		t.Fatalf("Scrub: %v\n%s", err, rep)
	}
	if rep.Orphans != 1 || rep.Repairs != 1 {
		t.Fatalf("report = %s; want 1 orphan removed", rep)
	}
	if _, err := base.Get(ctx, "#0"); !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("orphan still stored: %v", err)
	}
	rep, err = ix.Scrub(ctx)
	if err != nil || !rep.Clean() {
		t.Fatalf("second Scrub = %v, %s; want clean", err, rep)
	}
}

// TestScrubRelocatesStrays verifies record relocation: a record parked in
// a leaf whose interval does not contain it is pulled out and re-inserted
// where lookups can find it.
func TestScrubRelocatesStrays(t *testing.T) {
	ctx := context.Background()
	base := dht.NewLocal()
	if err := splitWorkload(t, base); err != nil {
		t.Fatal(err)
	}
	// Park a record for 0.9 inside leaf #00 ([0, 0.5)).
	v, err := base.Get(ctx, "#")
	if err != nil {
		t.Fatal(err)
	}
	b := v.(*Bucket)
	b.Records = append(b.Records, record.Record{Key: 0.9, Value: []byte{9}})
	if err := base.Put(ctx, "#", b); err != nil {
		t.Fatal(err)
	}

	ix, err := New(base, Config{SplitThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ix.Scrub(ctx)
	if err != nil {
		t.Fatalf("Scrub: %v\n%s", err, rep)
	}
	if rep.Strays != 1 {
		t.Fatalf("report = %s; want 1 stray relocated", rep)
	}
	rec, _, err := ix.Search(0.9)
	if err != nil || rec.Value[0] != 9 {
		t.Fatalf("Search(0.9) after relocation = %v, %v", rec, err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
