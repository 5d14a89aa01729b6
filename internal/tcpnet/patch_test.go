package tcpnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"regexp"
	"sync"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/dht/dhttest"
	"lht/internal/keyspace"
	ilht "lht/internal/lht"
	"lht/internal/metrics"
	"lht/internal/pht"
	"lht/internal/record"
)

// patchIf is the payload of a patchif in mode 1 or 2.
func patchIf(key string, mode byte, ifEpoch uint64, patch []byte) []byte {
	b := append(appendKey(nil, key), mode)
	return append(appendUv(b, ifEpoch), patch...)
}

// probePatch is the payload of a patchif in mode 0: a Patch riding a
// probe of key with hint.
func probePatch(key string, hint uint64, patch []byte) []byte {
	b := append(appendKey(nil, key), patchProbe)
	return append(binary.BigEndian.AppendUint64(b, hint), patch...)
}

// upserted is b after the whole-bucket arm's insert of rec.
func upserted(b *ilht.Bucket, rec record.Record) *ilht.Bucket {
	nb := b.Clone()
	if i := record.FindByKey(nb.Records, rec.Key); i >= 0 {
		nb.Records[i] = rec
	} else {
		nb.Records = append(nb.Records, rec)
	}
	nb.Epoch++
	return nb
}

func mustAppendValue(t testing.TB, v dht.Value) []byte {
	t.Helper()
	tv, err := appendValue(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	return tv
}

// TestPatchIfOnTheWire pins the node's half of a patched write (wire op
// patchif): the stored
// bytes after a patch are the bytes a PutIf of the patched bucket stores,
// tags and all; a Patch is one lookup whatever it meets, and one the
// patcher will not apply — every stored form the node cannot look into,
// every leaf the write was not meant for — writes nothing and is answered
// as the probe it rode; the propagation mode compares epochs as putnewer
// does and the in-place mode as writeif does, charging no lookup; and an
// applied patch allocates nothing.
func TestPatchIfOnTheWire(t *testing.T) {
	ctx := context.Background()
	c, servers := startCluster(t, 1)
	srv := servers[0]
	b := wideBucket() // epoch 7, 75 records at depth 7
	torn := wideBucket()
	torn.Pending = ilht.Pending{Kind: ilht.PendingSplit}
	node := &pht.Node{Label: bitlabel.MustParse("#010"), Leaf: true, Epoch: 7,
		Records: []record.Record{{Key: 0.3, Value: []byte("thirty")}}}
	for key, v := range map[string]dht.Value{
		"bucket": b,
		"torn":   torn,
		"raw":    []byte("just bytes"),
		"epoch":  &dhttest.EpochValue{Epoch: 7, Body: "seven"},
		"node":   node,
	} {
		if err := c.Put(ctx, key, v); err != nil {
			t.Fatal(err)
		}
	}
	stored := func(key string) []byte {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return storedValue(srv, key)
	}
	lookups := func() int64 { return srv.Metrics().Lookup.Total }
	rec := record.Record{Key: 0.7101, Value: []byte("new")}
	put := ilht.UpsertPatch(rec, 100, 20)
	want := func(delta float64) uint64 { return ilht.ProbeHint(delta, false) }

	// Applied: the acknowledgement, the stored bytes, the counter.
	before := lookups()
	v, err := c.Patch(ctx, "bucket", want(rec.Key), put)
	if v != (ilht.PatchAck{Records: 76}) || err != nil {
		t.Fatalf("Patch = %#v, %v, want an acknowledgement of 76 records", v, err)
	}
	upsert := upserted(b, rec)
	if got := stored("bucket"); !bytes.Equal(got, mustAppendValue(t, upsert)) {
		t.Fatalf("stored after the patch:\n%x\nwant what a PutIf of the patched bucket stores:\n%x", got, mustAppendValue(t, upsert))
	}
	if n := lookups() - before; n != 1 {
		t.Errorf("one patch counted as %d lookups", n)
	}
	// Asked for, the acknowledgement names the leaf.
	rec.Value = []byte("again")
	v, err = c.Patch(ctx, "bucket", want(rec.Key), ilht.WantLabel(ilht.UpsertPatch(rec, 100, 20)))
	if a, ok := v.(*ilht.LeafAck); err != nil || !ok || a.Label != b.Label || a.Records != 76 {
		t.Fatalf("labelled Patch = %#v, %v, want %s's label and 76 records", v, err, b.Label)
	}
	upsert = upserted(upsert, rec)
	// Across the patch's threshold the reply is the split reply: what the
	// writer's split moves.
	rec2 := record.Record{Key: 0.7105, Value: []byte("split")}
	v, err = c.Patch(ctx, "bucket", want(rec2.Key), ilht.UpsertPatch(rec2, 78, 20))
	upsert = upserted(upsert, rec2)
	if _, ok := v.(*ilht.Cut); err != nil || !ok || !bytes.Equal(stored("bucket"), mustAppendValue(t, upsert)) {
		t.Fatalf("Patch across the threshold = %#v, %v, want the split reply", v, err)
	}

	// Not applied, the patch was a probe: answered as the probe, with the
	// refusal, one lookup each and nothing written. A stored form no
	// patcher can look into, and a torn leaf, are answered whole.
	before = lookups()
	for _, key := range []string{"torn", "raw", "epoch", "node"} {
		was := append([]byte(nil), stored(key)...)
		probe, perr := c.Probe(ctx, key, want(0.71))
		if v, err := c.Patch(ctx, key, want(0.71), put); !errors.Is(err, dht.ErrPatchRefused) || !reflect.DeepEqual(v, probe) || perr != nil {
			t.Errorf("Patch of %q = %#v, %v, want a refusal beside %#v, the probe's answer", key, v, err, probe)
		}
		if !bytes.Equal(stored(key), was) {
			t.Errorf("the refused patch of %q changed what is stored", key)
		}
	}
	if n := lookups() - before; n != 8 {
		t.Errorf("four refused patches and their four probes counted as %d lookups, want 8", n)
	}
	// The leaf weighs 78 now, at depth 7: a new key takes it past the
	// weight bound of a patch whose threshold is 71 or less.
	atBound := 78 - b.Label.Len()
	for name, tc := range map[string]struct {
		hint  uint64
		patch []byte
		check func(dht.Value) bool
	}{
		"an excluded key": {want(0.1), ilht.UpsertPatch(record.Record{Key: 0.1}, 0, 20), func(v dht.Value) bool {
			h, ok := v.(*ilht.BucketHeader)
			return ok && h.Label == upsert.Label
		}},
		"an absent record": {ilht.ProbeHint(0.7186, true), ilht.DeletePatch(0.7186, 0), func(v dht.Value) bool {
			r, ok := v.(*ilht.BucketRecord)
			return ok && r.Label == upsert.Label && !r.Found
		}},
		"an unknown op":      {want(0.71), []byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0}, isBucket},
		"a record cut short": {want(0.71), put[:len(put)-1], isBucket},
		"no patch":           {want(0.71), nil, isBucket},
		// One record past the weight bound, theta + depth: the writer must
		// split first, and the answer is the bucket to split.
		"a new key at the bound": {want(0.7186), ilht.UpsertPatch(record.Record{Key: 0.7186}, atBound, 20), isBucket},
	} {
		was := stored("bucket")
		before := lookups()
		v, err := c.Patch(ctx, "bucket", tc.hint, tc.patch)
		if !errors.Is(err, dht.ErrPatchRefused) || !tc.check(v) {
			t.Errorf("Patch with %s = %#v, %v, want a refusal beside the probe's answer", name, v, err)
		}
		if got := stored("bucket"); &got[0] != &was[0] {
			t.Errorf("Patch with %s replaced the stored value", name)
		}
		if n := lookups() - before; n != 1 {
			t.Errorf("Patch with %s counted as %d lookups", name, n)
		}
	}
	// The bound holds only above the depth bound D: a leaf at D takes the
	// record, and the writer gets the bucket back to count its overflow.
	v, err = c.Patch(ctx, "bucket", want(0.7186), ilht.UpsertPatch(record.Record{Key: 0.7186}, atBound, b.Label.Len()))
	if got, ok := v.(*ilht.Bucket); err != nil || !ok || len(got.Records) != 78 {
		t.Fatalf("Patch at the depth bound = %#v, %v, want the bucket with the record in", v, err)
	}
	upsert = upserted(upsert, record.Record{Key: 0.7186})
	before = lookups()
	if v, err := c.Patch(ctx, "absent", want(0.71), put); !errors.Is(err, dht.ErrNotFound) || v != nil {
		t.Errorf("Patch of an absent key = %#v, %v, want not-found", v, err)
	}
	if f := srv.Metrics().Lookup; f.Total-before != 1 {
		t.Errorf("a patch of an absent key counted as %d lookups", f.Total-before)
	}
	if dht.IsTransient(dht.ErrPatchRefused) || errors.Is(dht.ErrPatchRefused, dht.ErrCASConflict) {
		t.Error("a refusal classifies as transient or as a conflict")
	}

	// Propagation mode, frame by frame: applied at the epoch named, ok
	// and untouched past it, a conflict behind it or on an absent key;
	// the reply is the status alone.
	status := replyBody
	was := stored("bucket") // epoch 11
	del := ilht.DeletePatch(rec2.Key, 200)
	for name, tc := range map[string]struct {
		payload []byte
		want    []byte
	}{
		"newer, stored ahead":  {patchIf("bucket", patchNewer, 10, del), []byte{statusOK}},
		"newer, stored behind": {patchIf("bucket", patchNewer, 12, del), appendCASConflict(nil, true, 11)},
		"newer, absent":        {patchIf("absent", patchNewer, 11, del), appendCASConflict(nil, false, 0)},
		"newer, refused":       {patchIf("bucket", patchNewer, 11, ilht.DeletePatch(0.7188, 0)), []byte{statusPatchRefused}},
		"no mode":              {appendKey(nil, "bucket"), appendStatusErr(nil, errMalformed)},
		"mode 3":               {patchIf("bucket", 3, 11, del), appendStatusErr(nil, errMalformed)},
		"no epoch":             {append(appendKey(nil, "bucket"), patchNewer), appendStatusErr(nil, errMalformed)},
		"probe, no hint":       {append(appendKey(nil, "bucket"), patchProbe, 1, 2, 3), appendStatusErr(nil, errMalformed)},
		"no key":               {nil, appendStatusErr(nil, errMalformed)},
	} {
		resp := serve(srv, buildFrame(1, dht.OpPatchIf, tc.payload), nil)
		if !bytes.Equal(status(resp), tc.want) {
			t.Errorf("%s: answered % x, want % x", name, status(resp), tc.want)
		}
		if got := stored("bucket"); &got[0] != &was[0] {
			t.Fatalf("%s: the stored value was replaced", name)
		}
	}
	resp := serve(srv, buildFrame(2, dht.OpPatchIf, patchIf("bucket", patchNewer, 11, del)), nil)
	upsert, _ = deleted(upsert, rec2.Key)
	if !bytes.Equal(status(resp), []byte{statusOK}) || !bytes.Equal(stored("bucket"), mustAppendValue(t, upsert)) {
		t.Errorf("newer at the stored epoch: answered % x, stored %x", status(resp), stored("bucket"))
	}
	// An applied Patch's reply says which epoch it patched: what the
	// propagation to the other holders is guarded by.
	resp = serve(srv, buildFrame(3, dht.OpPatchIf, probePatch("bucket", want(rec.Key), put)), nil)
	rc := cursor{b: status(resp)}
	if st, _ := rc.u8(); st != statusOK {
		t.Errorf("a probe-mode patch answered % x", status(resp))
	} else if e, err := rc.uvarint(); err != nil || e != 12 {
		t.Errorf("a probe-mode patch of epoch 12 answered % x", status(resp))
	}
	cur := upserted(upsert, record.Record{Key: rec.Key, Value: []byte("new")})

	// In place: writeif's verdicts, and never a lookup. A stale epoch is
	// a conflict, an absent key not-found, a step that does not apply a
	// refusal; the mark and the commit store what the WriteIf of the
	// marked bucket and of its local half would.
	before = lookups()
	was = stored("bucket") // epoch 13
	for name, tc := range map[string]struct {
		payload []byte
		want    []byte
	}{
		"in place, stored ahead": {patchIf("bucket", patchInPlace, 12, ilht.MarkSplitPatch()), appendCASConflict(nil, true, 13)},
		"in place, absent":       {patchIf("absent", patchInPlace, 0, ilht.MarkSplitPatch()), []byte{statusNotFound}},
		"in place, refused":      {patchIf("bucket", patchInPlace, 13, ilht.CommitSplitPatch()), []byte{statusPatchRefused}},
	} {
		resp := serve(srv, buildFrame(5, dht.OpPatchIf, tc.payload), nil)
		if !bytes.Equal(status(resp), tc.want) {
			t.Errorf("%s: answered % x, want % x", name, status(resp), tc.want)
		}
		if got := stored("bucket"); &got[0] != &was[0] {
			t.Fatalf("%s: the stored value was replaced", name)
		}
	}
	marked := *cur
	marked.Pending, marked.Epoch = ilht.Pending{Kind: ilht.PendingSplit}, cur.Epoch+1
	v, err = c.WritePatchIf(ctx, "bucket", ilht.MarkSplitPatch(), cur.Epoch)
	if v != (ilht.PatchAck{Records: len(cur.Records)}) || err != nil || !bytes.Equal(stored("bucket"), mustAppendValue(t, &marked)) {
		t.Errorf("in-place mark = %#v, %v; stored\n%x", v, err, stored("bucket"))
	}
	local := localHalf(&marked)
	v, err = c.WritePatchIf(ctx, "bucket", ilht.CommitSplitPatch(), marked.Epoch)
	if v != (ilht.PatchAck{Records: len(local.Records)}) || err != nil || !bytes.Equal(stored("bucket"), mustAppendValue(t, local)) {
		t.Errorf("in-place commit = %#v, %v; stored\n%x\nwant\n%x", v, err, stored("bucket"), mustAppendValue(t, local))
	}
	if n := lookups() - before; n != 0 {
		t.Errorf("five in-place patches counted as %d lookups", n)
	}

	// No allocation a patch: the value is built in the node's spare
	// array, and stored under the string the store already has for the
	// key.
	if err := c.Put(ctx, "bucket", wideBucket()); err != nil {
		t.Fatal(err)
	}
	reqs := [2][]byte{
		buildFrame(3, dht.OpPatchIf, probePatch("bucket", want(rec.Key), ilht.UpsertPatch(rec, 0, 20))),
		buildFrame(4, dht.OpPatchIf, probePatch("bucket", want(rec.Key), ilht.DeletePatch(rec.Key, 0))),
	}
	i, out := 0, make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		if resp := status(serve(srv, reqs[i%2], &out)); resp[0] != statusOK {
			t.Fatalf("patch %d answered % x", i, resp)
		}
		i++
	}); n != 0 {
		t.Errorf("serving a patch: %v allocations, want 0", n)
	}
	// A split's in-place mark and commit of a fresh copy of the bucket:
	// only the committed half, which is less than half the length of the
	// arrays at hand (the spare and the marked bucket's) and so gets one
	// of its own size.
	e := wideBucket().Epoch
	steps := [2][]byte{
		buildFrame(5, dht.OpPatchIf, patchIf("bucket", patchInPlace, e, ilht.MarkSplitPatch())),
		buildFrame(6, dht.OpPatchIf, patchIf("bucket", patchInPlace, e+1, ilht.CommitSplitPatch())),
	}
	fresh := make([][]byte, 201) // AllocsPerRun's warm-up and runs
	for i := range fresh {
		fresh[i] = mustAppendValue(t, wideBucket())
	}
	i = 0
	if n := testing.AllocsPerRun(len(fresh)-1, func() {
		srv.mu.Lock()
		plantValue(srv, "bucket", fresh[i])
		srv.mu.Unlock()
		for _, req := range steps {
			if resp := status(serve(srv, req, &out)); resp[0] != statusOK {
				t.Fatalf("in-place step %d answered % x", i, resp)
			}
		}
		i++
	}); n != 1 {
		t.Errorf("serving a mark and a commit: %v allocations, want 1 (the committed half)", n)
	}
}

// isBucket reports whether v is a whole bucket.
func isBucket(v dht.Value) bool {
	_, ok := v.(*ilht.Bucket)
	return ok
}

// localHalf is the half of a marked wideBucket that a split commits on
// its peer: #0101101 ends in 1, so the upper half stays, as the label's
// right child.
func localHalf(marked *ilht.Bucket) *ilht.Bucket {
	iv := keyspace.IntervalOf(marked.Label)
	local := &ilht.Bucket{Label: marked.Label.Right(), Epoch: marked.Epoch + 1}
	for _, r := range marked.Records {
		if r.Key >= iv.Lo+(iv.Hi-iv.Lo)/2 {
			local.Records = append(local.Records, r)
		}
	}
	return local
}

// deleted is b after the whole-bucket arm's delete of delta.
func deleted(b *ilht.Bucket, delta float64) (*ilht.Bucket, bool) {
	i := record.FindByKey(b.Records, delta)
	if i < 0 {
		return nil, false
	}
	nb := b.Clone()
	nb.Records[i] = nb.Records[len(nb.Records)-1]
	nb.Records = nb.Records[:len(nb.Records)-1]
	nb.Epoch++
	return nb, true
}

// lyingPatcher is a peer whose honest answer to a patch it applied is
// tampered with on its way to the index: lie gets the honest reply, the
// bucket as the patch left it and the patch. With refuse it applies
// nothing instead, and answers a patch of a leaf that covers the key with
// the leaf's record reply, as if it had declined to apply it there.
type lyingPatcher struct {
	*Client
	lie    func(honest dht.Value, stored *ilht.Bucket, patch []byte) dht.Value
	refuse bool
}

func (p lyingPatcher) Patch(ctx context.Context, key string, hint uint64, patch []byte) (dht.Value, error) {
	if p.refuse {
		delta, upsert := patchDelta(patch)
		v, err := p.Client.Probe(ctx, key, ilht.ProbeHint(delta, true))
		if r, ok := v.(*ilht.BucketRecord); ok && err == nil && (upsert || r.Found) {
			return r, dht.ErrPatchRefused
		}
		return p.Client.Patch(ctx, key, hint, patch)
	}
	v, err := p.Client.Patch(ctx, key, hint, patch)
	if err != nil {
		return v, err
	}
	w, err := p.Client.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	return p.lie(v, w.(*ilht.Bucket), patch), nil
}

// patchDelta is the key an upsert or delete patch writes, and whether it
// is an upsert.
func patchDelta(patch []byte) (float64, bool) {
	upsert := patch[0]&0x7f == ilht.UpsertPatch(record.Record{}, 0, 0)[0]
	c := cursor{b: patch[1:]}
	_, _ = c.uvarint() // whole
	if upsert {
		_, _ = c.uvarint() // depth
	}
	return math.Float64frombits(binary.BigEndian.Uint64(c.b)), upsert
}

// growBoth runs one seeded stream of inserts, overwrites and deletes
// through two indexes on clusters of their own and returns, per op, how
// many lookups more the second paid than the first, checking that both
// saw the same outcome.
func growBoth(t *testing.T, honest, other *ilht.Index) []int {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	var present []float64
	extra := make([]int, 0, 240)
	for i := 0; i < 240; i++ {
		var a, b ilht.Cost
		var errA, errB error
		if i%4 == 3 {
			j := rng.Intn(len(present))
			a, errA = honest.Delete(present[j])
			b, errB = other.Delete(present[j])
			present = append(present[:j], present[j+1:]...)
		} else {
			rec := record.Record{Key: rng.Float64(), Value: []byte{byte(i)}}
			if i%8 == 1 {
				rec.Key = present[rng.Intn(len(present))]
			} else {
				present = append(present, rec.Key)
			}
			a, errA = honest.Insert(rec)
			b, errB = other.Insert(rec)
		}
		if errA != nil || errB != nil {
			t.Fatalf("op %d: %v through the honest peer, %v through the other", i, errA, errB)
		}
		extra = append(extra, b.Lookups-a.Lookups)
	}
	return extra
}

// sameTree fails unless both indexes hold byte-identical leaves.
func sameTree(t *testing.T, a, b *ilht.Index) {
	t.Helper()
	la, err := a.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	lb, err := b.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	if len(la) != len(lb) {
		t.Fatalf("%d leaves against %d", len(la), len(lb))
	}
	for i := range la {
		if ea, eb := mustAppendValue(t, la[i]), mustAppendValue(t, lb[i]); !bytes.Equal(ea, eb) {
			t.Fatalf("leaf %d:\n%x\nagainst\n%x", i, ea, eb)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A patch's reply is believed only as far as it checks out, whether the
// patch rode the search's probe (the leaf cache on) or followed its record
// reply (off). A whole bucket must be a leaf stored under the patched name
// that covers the key, untorn, with the record in (or out); an
// acknowledgement must leave the leaf short of the threshold the patch
// named. A reply that fails costs one plain get of the bucket and changes
// nothing else: the write was committed either way, and the split or
// merge runs on what is stored. A peer that says it did not apply a
// patch to a covering, untorn leaf that holds what the patch needs is not
// believed either: the leaf is fetched with one plain get and written
// whole, two lookups more, to the same tree.
func TestLyingPatchReplyIsRefetchedNotTrusted(t *testing.T) {
	for name, tc := range map[string]struct {
		lie    func(honest dht.Value, stored *ilht.Bucket, patch []byte) dht.Value
		refuse bool
		always bool // every write is lied to, not just those that crossed a threshold
	}{
		"another leaf's bucket": {lie: func(_ dht.Value, b *ilht.Bucket, _ []byte) dht.Value {
			if b.Label.Len() > 1 {
				b.Label = b.Label.Sibling() // disjoint
			} else {
				b.Label = b.Label.Right() // stored under another name
			}
			return b
		}, always: true},
		"a torn bucket": {lie: func(_ dht.Value, b *ilht.Bucket, _ []byte) dht.Value {
			b.Pending = ilht.Pending{Kind: ilht.PendingSplit}
			return b
		}, always: true},
		"a bucket without the write": {lie: func(_ dht.Value, b *ilht.Bucket, patch []byte) dht.Value {
			// The upserted record out again, the deleted one back in.
			delta, _ := patchDelta(patch)
			if i := record.FindByKey(b.Records, delta); i >= 0 {
				b.Records = append(b.Records[:i], b.Records[i+1:]...)
			} else {
				b.Records = append(b.Records, record.Record{Key: delta})
			}
			return b
		}, always: true},
		"an acknowledgement where the bucket was due": {lie: func(_ dht.Value, b *ilht.Bucket, patch []byte) dht.Value {
			// The form of acknowledgement the write asked for: labelled for
			// a patch that rode a probe (WantLabel), so that only the
			// count lies.
			if patch[0]&0x80 != 0 {
				return &ilht.LeafAck{Label: b.Label, Records: len(b.Records)}
			}
			return ilht.PatchAck{Records: len(b.Records)}
		}},
		"not applied to a leaf it applies to": {refuse: true, always: true},
	} {
		t.Run(name, func(t *testing.T) {
			for _, cached := range []bool{false, true} {
				t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
					cfg := ilht.Config{SplitThreshold: 5, MergeThreshold: 3, Depth: 20, LeafCache: cached}
					honest, _ := startCluster(t, 1)
					lying, _ := startCluster(t, 1)
					lies := 0
					want, err := ilht.New(honest, cfg)
					if err != nil {
						t.Fatal(err)
					}
					crossed := map[int]bool{} // lies told where the honest reply was a bucket or a split reply
					got, err := ilht.New(lyingPatcher{Client: lying, refuse: tc.refuse, lie: func(v dht.Value, b *ilht.Bucket, patch []byte) dht.Value {
						_, whole := v.(*ilht.Bucket)
						_, cut := v.(*ilht.Cut)
						crossed[lies] = whole || cut
						lies++
						return tc.lie(v, b, patch)
					}}, cfg)
					if err != nil {
						t.Fatal(err)
					}
					extra := growBoth(t, want, got)
					if !tc.refuse && lies != len(extra) {
						t.Fatalf("%d patches applied for %d writes", lies, len(extra))
					}
					refetched, perLie := 0, 1
					if tc.refuse {
						perLie = 2
					}
					for i, n := range extra {
						switch {
						case n == perLie:
							refetched++
						case n != 0:
							t.Errorf("write %d cost %d lookups more through the lying peer", i, n)
						}
						if tc.always && n != perLie {
							t.Errorf("write %d: %d more lookups, want %d", i, n, perLie)
						}
						if !tc.always && crossed[i] && n != perLie {
							t.Errorf("write %d crossed a threshold and was lied to: %d more lookups, want the one refetch", i, n)
						}
					}
					if refetched == 0 {
						t.Error("no write refetched its bucket")
					}
					plain, err := ilht.New(wholeOnly{lying, lying}, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sameTree(t, want, plain)
				})
			}
		})
	}
}

// wholeOnly hides the client's probe and patch planes.
type wholeOnly struct {
	dht.DHT
	dht.Batcher
}

// recordOnlyCounter counts the lookups that ended in a record reply, the
// patches, those of them that rode a probe and were applied, and the
// in-place patches.
type recordOnlyCounter struct {
	*Client
	mu                                sync.Mutex
	records, patches, ridden, inPlace int
}

func (p *recordOnlyCounter) WritePatchIf(ctx context.Context, key string, patch []byte, ifEpoch uint64) (dht.Value, error) {
	p.mu.Lock()
	p.inPlace++
	p.mu.Unlock()
	return p.Client.WritePatchIf(ctx, key, patch, ifEpoch)
}

func (p *recordOnlyCounter) Probe(ctx context.Context, key string, hint uint64) (dht.Value, error) {
	v, err := p.Client.Probe(ctx, key, hint)
	if _, ok := v.(*ilht.BucketRecord); ok {
		p.mu.Lock()
		p.records++
		p.mu.Unlock()
	}
	return v, err
}

// Patch counts the patches that rode a search's probe (they ask for a
// labelled acknowledgement) and were applied: each is a lookup the
// whole-bucket arm pays and this one does not.
func (p *recordOnlyCounter) Patch(ctx context.Context, key string, hint uint64, patch []byte) (dht.Value, error) {
	v, err := p.Client.Patch(ctx, key, hint, patch)
	p.mu.Lock()
	p.patches++
	if err == nil && patch[0]&0x80 != 0 {
		p.ridden++
	}
	p.mu.Unlock()
	return v, err
}

// riddenCount is how many patches rode a probe and were applied.
func (p *recordOnlyCounter) riddenCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ridden
}

// An older client's getbatch, the keys and nothing after them, is answered
// by a new node as before the hint existed: each found slot holds the
// stored value, byte for byte. Keys followed by anything but nothing or
// one 8-byte hint are malformed, and charge nothing.
func TestUnhintedBatchIsServedAsBefore(t *testing.T) {
	srv := NewServer()
	bucket := mustAppendValue(t, wideBucket())
	plantValue(srv, "bucket", bucket)
	plantValue(srv, "raw", []byte{tagRaw, 'v'})
	keys := binary.AppendUvarint(nil, 3)
	for _, k := range []string{"bucket", "raw", "absent"} {
		keys = appendKey(keys, k)
	}
	want := appendLenBytes(append(appendUv([]byte{statusOK}, 3), statusOK), bucket)
	want = append(appendLenBytes(append(want, statusOK), storedValue(srv, "raw")), statusNotFound)
	if got := serve(srv, buildFrame(1, dht.OpGetBatch, keys), nil); !bytes.Equal(got, buildReply(1, want)) {
		t.Errorf("a getbatch with no hint was answered with\n%x\nwant\n%x", got, buildReply(1, want))
	}
	before := srv.Metrics().Lookup.Total
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 9} {
		resp := serve(srv, buildFrame(2, dht.OpGetBatch, append(keys, make([]byte, n)...)), nil)
		if c := (cursor{b: replyBody(resp)}); !bytes.Equal(c.b, append([]byte{statusErr}, errMalformed...)) {
			t.Errorf("keys and %d bytes more were answered with %q, want malformed", n, c.b)
		}
	}
	if after := srv.Metrics().Lookup.Total; after != before {
		t.Errorf("malformed getbatches charged %d lookups", after-before)
	}
}

// lyingAcker is a peer whose honest acknowledgement of one in-place step
// (the patch op) is tampered with on its way to the index: a count one
// off, or a whole bucket where an acknowledgement belongs, in turn.
type lyingAcker struct {
	*Client
	op   byte
	lies int
}

func (p *lyingAcker) WritePatchIf(ctx context.Context, key string, patch []byte, ifEpoch uint64) (dht.Value, error) {
	v, err := p.Client.WritePatchIf(ctx, key, patch, ifEpoch)
	if err != nil || patch[0] != p.op {
		return v, err
	}
	p.lies++
	if p.lies%2 == 0 {
		return &ilht.Bucket{Label: bitlabel.TreeRoot}, nil
	}
	return ilht.PatchAck{Records: v.(ilht.PatchAck).Records + 1}, nil
}

// An in-place step's acknowledgement is believed only if it carries the
// record count the writer computed for the step. One that does not costs
// one plain get of the leaf, and the split or merge goes on from what is
// stored: the same tree, one lookup more for each lie.
func TestLyingInPlaceAckIsRefetchedNotTrusted(t *testing.T) {
	cfg := ilht.Config{SplitThreshold: 5, MergeThreshold: 5, Depth: 20}
	for name, op := range map[string]byte{"mark": ilht.MarkSplitPatch()[0], "commit": ilht.CommitSplitPatch()[0], "clear": ilht.ClearMergePatch()[0]} {
		t.Run(name, func(t *testing.T) {
			honest, _ := startCluster(t, 1)
			lying, _ := startCluster(t, 1)
			want, err := ilht.New(honest, cfg)
			if err != nil {
				t.Fatal(err)
			}
			liar := &lyingAcker{Client: lying, op: op}
			got, err := ilht.New(liar, cfg)
			if err != nil {
				t.Fatal(err)
			}
			extra := 0
			for i, n := range growBoth(t, want, got) {
				if n != 0 && n != 1 {
					t.Errorf("write %d cost %d lookups more through the lying peer", i, n)
				}
				extra += n
			}
			if liar.lies < 2 || extra != liar.lies {
				t.Errorf("%d lookups more for %d lies, want one each, and at least two lies", extra, liar.lies)
			}
			plain, err := ilht.New(wholeOnly{lying, lying}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameTree(t, want, plain)
		})
	}
}

// nameDialer dials cluster members by fixed names, so that two clusters
// hash their members, and so place every key, alike.
type nameDialer map[string]string

func (d nameDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	var nd net.Dialer
	return nd.DialContext(ctx, network, d[addr])
}

// startNamedCluster boots three servers known to the client as node0..2,
// replicas holders a key, write failover on.
func startNamedCluster(t *testing.T, replicas int) (*Client, []*Server) {
	t.Helper()
	srvs := make([]*Server, 3)
	names := make([]string, len(srvs))
	dialer := nameDialer{}
	for i := range srvs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer()
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		srvs[i], names[i] = srv, fmt.Sprintf("node%d:7000", i)
		dialer[names[i]] = ln.Addr().String()
	}
	c, err := Dial(context.Background(), ClusterConfig{Seeds: names, Replicas: replicas, FailoverWrites: true, Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, srvs
}

// dialNoise is what differs between two dial errors that say the same
// thing: the loopback port, and whether the redial backoff gate answered
// in place of the dialer (which the clock decides).
var dialNoise = regexp.MustCompile(`127\.0\.0\.1:\d+| backing off after \d+ failures: tcpnet: dial "[^"]*"`)

// With two or three holders a key, a patched write and a whole-bucket
// write leave byte-identical values on every holder after every op —
// splits and merges, their in-place steps patched too, included — with
// the same index and server counters, but for the one lookup each patch
// that rode the search's probe saved: such an op costs exactly that many
// lookups less. With one holder dead and write failover on that still
// holds op for op, and the live holders still agree byte for byte: the
// dead holder's copy, patch or whole value, is dropped either way, for
// the scrub to restore.
func TestPatchedWritesOnEveryHolder(t *testing.T) {
	for _, replicas := range []int{2, 3} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) { patchedWritesOnEveryHolder(t, replicas) })
	}
}

func patchedWritesOnEveryHolder(t *testing.T, replicas int) {
	cfg := ilht.Config{SplitThreshold: 6, MergeThreshold: 4, Depth: 20, LeafCache: true}
	type arm struct {
		srvs    []*Server
		ix      *ilht.Index
		results []string
	}
	counter := &recordOnlyCounter{}
	start := func(hide bool) *arm {
		client, srvs := startNamedCluster(t, replicas)
		var d dht.DHT = client
		if hide {
			d = wholeOnly{client, client}
		} else {
			counter.Client = client
			d = counter
		}
		ix, err := ilht.New(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return &arm{srvs: srvs, ix: ix}
	}
	patched, whole := start(false), start(true)
	rng := rand.New(rand.NewSource(31))
	var present []float64
	step := func(i int) {
		var del bool
		rec := record.Record{Key: rng.Float64(), Value: []byte(fmt.Sprint("v", i))}
		switch {
		case i%3 == 2:
			j := rng.Intn(len(present))
			del, rec.Key = true, present[j]
			present = append(present[:j], present[j+1:]...)
		case i%7 == 1:
			rec.Key = present[rng.Intn(len(present))]
		default:
			present = append(present, rec.Key)
		}
		for _, a := range []*arm{patched, whole} {
			ridden := counter.riddenCount()
			var cost ilht.Cost
			var err error
			if del {
				cost, err = a.ix.Delete(rec.Key)
			} else {
				cost, err = a.ix.Insert(rec)
			}
			if a == patched {
				// What the whole-bucket arm pays for the probe each ridden
				// patch replaced.
				n := counter.riddenCount() - ridden
				cost.Lookups += n
				cost.Steps += n
			}
			a.results = append(a.results, dialNoise.ReplaceAllString(fmt.Sprintf("%+v %v", cost, err), ""))
		}
	}
	compare := func(when string, allUp bool, live ...int) {
		t.Helper()
		ridden := int64(counter.riddenCount())
		for i := range patched.results {
			if patched.results[i] != whole.results[i] {
				t.Fatalf("%s: op %d: %s as a patch and its ridden probes, %s as a whole bucket", when, i, patched.results[i], whole.results[i])
			}
		}
		var servedP, servedW metrics.LookupCounts
		for _, i := range live {
			p, w := patched.srvs[i], whole.srvs[i]
			pl, wl := p.Metrics().Lookup, w.Metrics().Lookup
			servedP.Total, servedP.FailedGets = servedP.Total+pl.Total, servedP.FailedGets+pl.FailedGets
			servedW.Total, servedW.FailedGets = servedW.Total+wl.Total, servedW.FailedGets+wl.FailedGets
			p.mu.Lock()
			w.mu.Lock()
			if !reflect.DeepEqual(p.store, w.store) {
				t.Fatalf("%s: node%d stores differ between the arms (%d keys against %d)", when, i, len(p.store), len(w.store))
			}
			w.mu.Unlock()
			p.mu.Unlock()
		}
		if servedP.Total += ridden; allUp && servedP != servedW {
			t.Fatalf("%s: the servers counted %+v as a patch and its ridden probes, %+v as a whole bucket", when, servedP, servedW)
		}
		pm, wm := patched.ix.Metrics(), whole.ix.Metrics()
		if pm.Write.RidesApplied != ridden {
			t.Errorf("%s: the index counted %d applied rides, the client saw %d", when, pm.Write.RidesApplied, ridden)
		}
		// The whole-bucket arm's substrate patches nothing and refuses every ride.
		pm.Write.RidesApplied, pm.Write.RidesRefused, wm.Write.RidesRefused = 0, 0, 0
		if pm.Lookup.Total += ridden; pm.Lookup != wm.Lookup || pm.Write != wm.Write || pm.Cache != wm.Cache {
			t.Errorf("%s: counters differ:\n%+v %+v %+v\n%+v %+v %+v", when, pm.Lookup, pm.Write, pm.Cache, wm.Lookup, wm.Write, wm.Cache)
		}
	}
	for i := 0; i < 300; i++ {
		step(i)
		compare(fmt.Sprintf("all holders up, op %d", i), true, 0, 1, 2)
	}
	if m := patched.ix.Metrics().Lookup; m.Splits < 10 || m.Merges < 3 {
		t.Errorf("the stream made %d splits and %d merges: too tame to prove much", m.Splits, m.Merges)
	}
	if n := counter.riddenCount(); 2*n < 300 {
		t.Errorf("%d of 300 writes were done by the probe their patch rode, want most", n)
	}

	for _, a := range []*arm{patched, whole} {
		if err := a.srvs[1].Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 300; i < 500; i++ {
		step(i)
		compare(fmt.Sprintf("node1 dead, op %d", i), false, 0, 2)
	}
	if m := patched.ix.Metrics().Lookup; counter.inPlace != int(2*m.Splits+m.Merges) {
		t.Errorf("%d in-place patches for %d splits and %d merges, want two a split and one a merge", counter.inPlace, m.Splits, m.Merges)
	}
}

// At two replicas a Patch's propagation to its one other holder runs on
// the caller's goroutine, and a secondary that cannot apply it gets the
// whole value instead, read back once from the serializer and stored over
// putnewer. Whatever the secondary held — the key at an older epoch (a
// conflict), nothing, or a stored form no patcher looks into at the
// patch's epoch (a refusal) — both holders end byte-identical, holding
// what a PutIf of the patched bucket stores, and the serializer serves
// exactly one get more than a secondary in step costs it. With the
// secondary's server closed, the Patch still succeeds (write failover
// leaves that copy to the scrub), and the serializer reads nothing back:
// the whole value would not reach the secondary either.
func TestOneTargetPatchFallsBackToTheWholeValue(t *testing.T) {
	ctx := context.Background()
	c, srvs := startNamedCluster(t, 2)
	server := func(n *clientNode) *Server {
		var i int
		if _, err := fmt.Sscanf(n.addr, "node%d:", &i); err != nil {
			t.Fatal(err)
		}
		return srvs[i]
	}
	holders := c.holders("leaf")
	primary, secondary := server(holders[0]), server(holders[1])
	stored := func(srv *Server) []byte {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return append([]byte(nil), storedValue(srv, "leaf")...)
	}
	b := wideBucket() // epoch 7
	rec := b.Records[37]
	rec.Value = []byte("patched")
	hint, patch := ilht.ProbeHint(rec.Key, false), ilht.UpsertPatch(rec, 0, 20)
	want := mustAppendValue(t, upserted(b, rec))
	behind := wideBucket()
	behind.Epoch--
	// run performs the Patch over a secondary that holds was (nil: nothing)
	// and returns how many lookups the serializer served for it.
	run := func(was []byte) int64 {
		t.Helper()
		if err := c.Put(ctx, "leaf", b); err != nil {
			t.Fatal(err)
		}
		secondary.mu.Lock()
		if delete(secondary.store, "leaf"); was != nil {
			plantValue(secondary, "leaf", was)
		}
		secondary.mu.Unlock()
		before := primary.Metrics().Lookup.Total
		if v, err := c.Patch(ctx, "leaf", hint, patch); err != nil || v != (ilht.PatchAck{Records: len(b.Records)}) {
			t.Fatalf("Patch = %#v, %v, want an acknowledgement of %d records", v, err, len(b.Records))
		}
		return primary.Metrics().Lookup.Total - before
	}
	inStep := run(mustAppendValue(t, b))
	if got := stored(secondary); !bytes.Equal(got, want) {
		t.Fatalf("a secondary in step stores\n%x\nwant\n%x", got, want)
	}
	for name, was := range map[string][]byte{
		"behind":  mustAppendValue(t, behind),
		"absent":  nil,
		"refused": mustAppendValue(t, &dhttest.EpochValue{Epoch: b.Epoch, Body: "seven"}),
	} {
		served := run(was)
		if p, s := stored(primary), stored(secondary); !bytes.Equal(p, want) || !bytes.Equal(s, p) {
			t.Errorf("secondary %s: the holders store\n%x\n%x\nwant both\n%x", name, p, s, want)
		}
		if served != inStep+1 {
			t.Errorf("secondary %s: the serializer served %d lookups, %d with the secondary in step: want one get more", name, served, inStep)
		}
	}

	if err := secondary.Close(); err != nil {
		t.Fatal(err)
	}
	if served := run(nil); served != inStep {
		t.Errorf("secondary dead: the serializer served %d lookups, %d with the secondary in step: want as many", served, inStep)
	}
	if p := stored(primary); !bytes.Equal(p, want) {
		t.Errorf("secondary dead: the serializer stores\n%x\nwant\n%x", p, want)
	}
}
