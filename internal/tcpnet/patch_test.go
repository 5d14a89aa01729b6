package tcpnet

import (
	"bufio"
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
	"sync/atomic"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/dht/dhttest"
	"lht/internal/keyspace"
	ilht "lht/internal/lht"
	"lht/internal/pht"
	"lht/internal/record"
)

// patchIf is a patchif request payload.
func patchIf(key string, mode byte, ifEpoch uint64, patch []byte) []byte {
	b := append(appendLenString(nil, key), mode)
	return append(appendUv(b, ifEpoch), patch...)
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

// TestPatchIfOnTheWire pins the node's half of a patched write: the
// stored bytes after a patch are the bytes a PutIf of the patched bucket
// stores, tags and all; the serializer's mode compares epochs as putif
// does, the propagation mode as putnewer does and the in-place mode as
// writeif does, charging no lookup; every stored form the
// node cannot look into, and every patch the kind's patcher turns down,
// is refused with nothing written; and the patcher's one allocation is
// the new stored value.
func TestPatchIfOnTheWire(t *testing.T) {
	ctx := context.Background()
	c, servers := startCluster(t, 1)
	srv := servers[0]
	b := wideBucket() // epoch 7
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
		return srv.store[key]
	}
	rec := record.Record{Key: 0.7101, Value: []byte("new")}
	put := ilht.UpsertPatch(rec, 100)

	// Applied: the acknowledgement, the stored bytes, the counter.
	before := srv.Metrics().Lookup.Total
	v, err := c.PatchIf(ctx, "bucket", put, 7)
	if v != (ilht.PatchAck{Records: 76}) || err != nil {
		t.Fatalf("PatchIf = %#v, %v, want an acknowledgement of 76 records", v, err)
	}
	want := upserted(b, rec)
	if got := stored("bucket"); !bytes.Equal(got, mustAppendValue(t, want)) {
		t.Fatalf("stored after the patch:\n%x\nwant what a PutIf of the patched bucket stores:\n%x", got, mustAppendValue(t, want))
	}
	if n := srv.Metrics().Lookup.Total - before; n != 1 {
		t.Errorf("one patchif counted as %d lookups", n)
	}
	// Across the patch's threshold the reply is the new bucket.
	rec2 := record.Record{Key: 0.7105, Value: []byte("whole")}
	v, err = c.PatchIf(ctx, "bucket", ilht.UpsertPatch(rec2, 78), 8)
	want = upserted(want, rec2)
	if got, ok := v.(*ilht.Bucket); err != nil || !ok || !bytes.Equal(mustAppendValue(t, got), mustAppendValue(t, want)) {
		t.Fatalf("PatchIf across the threshold = %#v, %v, want the new bucket", v, err)
	}
	// A lost compare-and-swap is putif's conflict, winner and all, and
	// its one lookup.
	before = srv.Metrics().Lookup.Total
	var conflict *dht.CASConflictError
	if _, err = c.PatchIf(ctx, "bucket", put, 7); !errors.As(err, &conflict) || !conflict.Exists || conflict.WinnerEpoch != 9 {
		t.Errorf("PatchIf at a stale epoch: %v", err)
	}
	if _, err = c.PatchIf(ctx, "absent", put, 0); !errors.As(err, &conflict) || conflict.Exists {
		t.Errorf("PatchIf of an absent key: %v", err)
	}
	if n := srv.Metrics().Lookup.Total - before; n != 2 {
		t.Errorf("two conflicting patchifs counted as %d lookups", n)
	}
	// Refusals write nothing and, as dht.Patcher has it, cost nothing:
	// the whole-value write that follows one is the lookup.
	before = srv.Metrics().Lookup.Total
	for _, key := range []string{"torn", "raw", "epoch", "node"} {
		was := append([]byte(nil), stored(key)...)
		if v, err := c.PatchIf(ctx, key, put, storedEpoch(was)); !errors.Is(err, dht.ErrPatchRefused) || v != nil {
			t.Errorf("PatchIf of %q = %#v, %v, want a refusal", key, v, err)
		}
		if !bytes.Equal(stored(key), was) {
			t.Errorf("the refused patch of %q changed what is stored", key)
		}
	}
	for name, patch := range map[string][]byte{
		"no patch":           nil,
		"an excluded key":    ilht.UpsertPatch(record.Record{Key: 0.1}, 0),
		"an absent record":   ilht.DeletePatch(0.7189, 0),
		"an unknown op":      {9, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"a record cut short": put[:len(put)-1],
	} {
		was := stored("bucket")
		if _, err := c.PatchIf(ctx, "bucket", patch, 9); !errors.Is(err, dht.ErrPatchRefused) {
			t.Errorf("PatchIf with %s: %v, want a refusal", name, err)
		}
		if got := stored("bucket"); &got[0] != &was[0] {
			t.Errorf("PatchIf with %s replaced the stored value", name)
		}
	}
	if n := srv.Metrics().Lookup.Total - before; n != 0 {
		t.Errorf("ten refused patchifs counted as %d lookups", n)
	}
	if dht.IsTransient(dht.ErrPatchRefused) || errors.Is(dht.ErrPatchRefused, dht.ErrCASConflict) {
		t.Error("a refusal classifies as transient or as a conflict")
	}

	// Propagation mode, frame by frame: applied at the epoch named, ok
	// and untouched past it, a conflict behind it or on an absent key;
	// the reply is the status alone.
	status := func(resp []byte) []byte { return resp[4+frameHeaderLen:] }
	was := stored("bucket") // epoch 9
	del := ilht.DeletePatch(rec2.Key, 200)
	for name, tc := range map[string]struct {
		payload []byte
		want    []byte
	}{
		"newer, stored ahead":   {patchIf("bucket", patchNewer, 8, del), []byte{statusOK}},
		"newer, stored behind":  {patchIf("bucket", patchNewer, 10, del), appendCASConflict(nil, true, 9)},
		"newer, absent":         {patchIf("absent", patchNewer, 9, del), appendCASConflict(nil, false, 0)},
		"newer, refused":        {patchIf("bucket", patchNewer, 9, ilht.DeletePatch(0.7189, 0)), []byte{statusPatchRefused}},
		"primary, stored ahead": {patchIf("bucket", patchPrimary, 8, del), appendCASConflict(nil, true, 9)},
		"no mode":               {appendLenString(nil, "bucket"), appendStatusErr(nil, errMalformed)},
		"mode 3":                {patchIf("bucket", 3, 9, del), appendStatusErr(nil, errMalformed)},
		"no epoch":              {append(appendLenString(nil, "bucket"), patchNewer), appendStatusErr(nil, errMalformed)},
		"no key":                {nil, appendStatusErr(nil, errMalformed)},
	} {
		resp := srv.applyFrame(buildFrame(1, dht.OpPatchIf, tc.payload)[4:], nil)
		if !bytes.Equal(status(resp), tc.want) {
			t.Errorf("%s: answered % x, want % x", name, status(resp), tc.want)
		}
		if got := stored("bucket"); &got[0] != &was[0] {
			t.Fatalf("%s: the stored value was replaced", name)
		}
	}
	resp := srv.applyFrame(buildFrame(2, dht.OpPatchIf, patchIf("bucket", patchNewer, 9, del))[4:], nil)
	want, _ = deleted(want, rec2.Key)
	if !bytes.Equal(status(resp), []byte{statusOK}) || !bytes.Equal(stored("bucket"), mustAppendValue(t, want)) {
		t.Errorf("newer at the stored epoch: answered % x, stored %x", status(resp), stored("bucket"))
	}

	// In place: writeif's verdicts, and never a lookup. A stale epoch is
	// a conflict, an absent key not-found, a step that does not apply a
	// refusal; the mark and the commit store what the WriteIf of the
	// marked bucket and of its local half would.
	before = srv.Metrics().Lookup.Total
	was = stored("bucket") // epoch 10
	for name, tc := range map[string]struct {
		payload []byte
		want    []byte
	}{
		"in place, stored ahead": {patchIf("bucket", patchInPlace, 9, ilht.MarkSplitPatch()), appendCASConflict(nil, true, 10)},
		"in place, absent":       {patchIf("absent", patchInPlace, 0, ilht.MarkSplitPatch()), []byte{statusNotFound}},
		"in place, refused":      {patchIf("bucket", patchInPlace, 10, ilht.CommitSplitPatch()), []byte{statusPatchRefused}},
	} {
		resp := srv.applyFrame(buildFrame(5, dht.OpPatchIf, tc.payload)[4:], nil)
		if !bytes.Equal(status(resp), tc.want) {
			t.Errorf("%s: answered % x, want % x", name, status(resp), tc.want)
		}
		if got := stored("bucket"); &got[0] != &was[0] {
			t.Fatalf("%s: the stored value was replaced", name)
		}
	}
	marked := *want
	marked.Pending, marked.Epoch = ilht.Pending{Kind: ilht.PendingSplit}, want.Epoch+1
	v, err = c.WritePatchIf(ctx, "bucket", ilht.MarkSplitPatch(), want.Epoch)
	if v != (ilht.PatchAck{Records: len(want.Records)}) || err != nil || !bytes.Equal(stored("bucket"), mustAppendValue(t, &marked)) {
		t.Errorf("in-place mark = %#v, %v; stored\n%x", v, err, stored("bucket"))
	}
	local := localHalf(&marked)
	v, err = c.WritePatchIf(ctx, "bucket", ilht.CommitSplitPatch(), marked.Epoch)
	if v != (ilht.PatchAck{Records: len(local.Records)}) || err != nil || !bytes.Equal(stored("bucket"), mustAppendValue(t, local)) {
		t.Errorf("in-place commit = %#v, %v; stored\n%x\nwant\n%x", v, err, stored("bucket"), mustAppendValue(t, local))
	}
	if n := srv.Metrics().Lookup.Total - before; n != 0 {
		t.Errorf("five in-place patches counted as %d lookups", n)
	}

	// Two allocations a patch, as for a putif: the value stored and the
	// store's own copy of the key. Epoch 1000 and on keeps the frame's
	// epoch two bytes wide.
	at := wideBucket()
	at.Epoch = 1000
	if err := c.Put(ctx, "bucket", at); err != nil {
		t.Fatal(err)
	}
	reqs := [2][]byte{
		buildFrame(3, dht.OpPatchIf, patchIf("bucket", patchPrimary, 1000, ilht.UpsertPatch(rec, 0)))[4:],
		buildFrame(4, dht.OpPatchIf, patchIf("bucket", patchPrimary, 1000, ilht.DeletePatch(rec.Key, 0)))[4:],
	}
	epochAt := frameHeaderLen + 1 + len("bucket") + 1
	epoch, out := uint64(1000), make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		req := reqs[epoch%2]
		binary.PutUvarint(req[epochAt:], epoch)
		if out = srv.applyFrame(req, out[:0]); status(out)[0] != statusOK {
			t.Fatalf("patch at epoch %d answered % x", epoch, status(out))
		}
		epoch++
	}); n != 2 {
		t.Errorf("serving a patchif: %v allocations, want 2 (the new stored value, the key)", n)
	}
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
// tampered with on its way to the index. stored is the bucket as the
// patch left it.
type lyingPatcher struct {
	*Client
	lie func(honest dht.Value, stored *ilht.Bucket, patch []byte) dht.Value
}

func (p lyingPatcher) PatchIf(ctx context.Context, key string, patch []byte, ifEpoch uint64) (dht.Value, error) {
	v, err := p.Client.PatchIf(ctx, key, patch, ifEpoch)
	if err != nil {
		return v, err
	}
	w, err := p.Client.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	return p.lie(v, w.(*ilht.Bucket), patch), nil
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

// A patch's reply is believed only as far as it checks out. A whole
// bucket must be the leaf the lookup found, one epoch on, with the record
// in (or out); an acknowledgement must leave the leaf short of the
// threshold the patch named. A reply that fails costs one plain get of
// the bucket and changes nothing else: the write was committed either
// way, and the split or merge runs on what is stored.
func TestLyingPatchReplyIsRefetchedNotTrusted(t *testing.T) {
	cfg := ilht.Config{SplitThreshold: 5, MergeThreshold: 3, Depth: 20}
	for name, tc := range map[string]struct {
		lie    func(honest dht.Value, stored *ilht.Bucket, patch []byte) dht.Value
		always bool // every write is lied to, not just those that crossed a threshold
	}{
		"another leaf's bucket": {func(_ dht.Value, b *ilht.Bucket, _ []byte) dht.Value {
			b.Label = b.Label.Child(0)
			return b
		}, true},
		"a stale epoch": {func(_ dht.Value, b *ilht.Bucket, _ []byte) dht.Value {
			b.Epoch--
			return b
		}, true},
		"a torn bucket": {func(_ dht.Value, b *ilht.Bucket, _ []byte) dht.Value {
			b.Pending = ilht.Pending{Kind: ilht.PendingSplit}
			return b
		}, true},
		"a bucket without the write": {func(_ dht.Value, b *ilht.Bucket, patch []byte) dht.Value {
			// The upserted record out again, the deleted one back in.
			_, n := binary.Uvarint(patch[1:])
			delta := math.Float64frombits(binary.BigEndian.Uint64(patch[1+n:]))
			if i := record.FindByKey(b.Records, delta); i >= 0 {
				b.Records = append(b.Records[:i], b.Records[i+1:]...)
			} else {
				b.Records = append(b.Records, record.Record{Key: delta})
			}
			return b
		}, true},
		"an acknowledgement where the bucket was due": {func(_ dht.Value, b *ilht.Bucket, _ []byte) dht.Value {
			return ilht.PatchAck{Records: len(b.Records)}
		}, false},
	} {
		t.Run(name, func(t *testing.T) {
			honest, _ := startCluster(t, 1)
			lying, _ := startCluster(t, 1)
			lies := 0
			want, err := ilht.New(honest, cfg)
			if err != nil {
				t.Fatal(err)
			}
			crossed := map[int]bool{} // lies told where the honest reply was a bucket
			got, err := ilht.New(lyingPatcher{lying, func(v dht.Value, b *ilht.Bucket, patch []byte) dht.Value {
				_, whole := v.(*ilht.Bucket)
				crossed[lies] = whole
				lies++
				return tc.lie(v, b, patch)
			}}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			extra := growBoth(t, want, got)
			if lies != len(extra) {
				t.Fatalf("%d patches for %d writes", lies, len(extra))
			}
			refetched := 0
			for i, n := range extra {
				switch {
				case n == 1:
					refetched++
				case n != 0:
					t.Errorf("write %d cost %d lookups more through the lying peer", i, n)
				}
				if tc.always && n != 1 {
					t.Errorf("write %d: %d more lookups, want the one refetch", i, n)
				}
				if !tc.always && crossed[i] && n != 1 {
					t.Errorf("write %d crossed a threshold and was lied to: %d more lookups, want the one refetch", i, n)
				}
			}
			if refetched == 0 {
				t.Error("no write refetched its bucket")
			}
			plain, err := ilht.New(wholeOnly{lying, lying, lying}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameTree(t, want, plain)
		})
	}
}

// wholeOnly hides the client's probe and patch planes.
type wholeOnly struct {
	dht.DHT
	dht.Batcher
	dht.Conditional
}

// oldVersion is how far back the node serveOld plays predates this one.
type oldVersion int

const (
	// beforePatches knows no patchif at all.
	beforePatches oldVersion = iota
	// beforeFeatures patches, but not in place (mode 2), and its ping
	// reply is the status alone, as every node's was before the feature
	// word.
	beforeFeatures
	// beforeHintedBatch patches in place and says so (feature bit 0), but
	// reads no hint on a getbatch.
	beforeHintedBatch
)

// oldNode is a node serveOld plays, with what of the newer protocol
// reached it.
type oldNode struct {
	addr          string
	inPlace       atomic.Int64 // patchifs of mode 2
	hintedBatches atomic.Int64 // getbatches with a hint after the keys
}

// serveOld serves the framed protocol from a real server's store the way
// a node of version v does. Every such node answers a getbatch whose keys
// are followed by anything as malformed; one before the feature word
// answers a patchif of mode 2 as malformed too, and one before patches
// answers patchif as an op it does not know.
func serveOld(t *testing.T, real *Server, v oldVersion) *oldNode {
	t.Helper()
	node := new(oldNode)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := br.Discard(len(wireMagic)); err != nil {
					return
				}
				for {
					body, err := readFrameBody(br, nil)
					if err != nil {
						return
					}
					c := cursor{b: body[frameHeaderLen:]}
					switch op := dht.OpKind(body[8]); {
					case op == dht.OpPatchIf && v == beforePatches:
						body[8] = 200 // the dispatcher's default arm, where the op fell before it existed
					case op == dht.OpPatchIf:
						if _, err := c.lenBytes(); err == nil && len(c.b) > 0 && c.b[0] == patchInPlace {
							node.inPlace.Add(1)
							if v < beforeHintedBatch {
								c.b[0] = patchInPlace + 1 // past the modes it knew: malformed
							}
						}
					case op == dht.OpGetBatch:
						n, err := c.count()
						for i := 0; i < n && err == nil; i++ {
							_, err = c.lenBytes()
						}
						if err == nil && !c.empty() {
							node.hintedBatches.Add(1)
							body = append(body, 0) // a tail it cannot read: malformed
						}
					}
					resp := real.applyFrame(body, nil)
					if dht.OpKind(body[8]) == dht.OpPing {
						resp = resp[:4+frameHeaderLen+1] // the status alone
						if v == beforeHintedBatch {
							resp = appendUv(resp, featInPlacePatch)
						}
						binary.BigEndian.PutUint32(resp, uint32(len(resp)-4))
					}
					if _, err := conn.Write(resp); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	node.addr = ln.Addr().String()
	return node
}

// recordOnlyCounter counts the lookups that ended in a record reply, the
// patches and the in-place patches.
type recordOnlyCounter struct {
	*Client
	mu                        sync.Mutex
	records, patches, inPlace int
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

func (p *recordOnlyCounter) PatchIf(ctx context.Context, key string, patch []byte, ifEpoch uint64) (dht.Value, error) {
	p.mu.Lock()
	p.patches++
	p.mu.Unlock()
	return p.Client.PatchIf(ctx, key, patch, ifEpoch)
}

// A new client over nodes that predate patchif: the first write's patch
// comes back "unknown op", which the client reads as a refusal; the index
// fetches the bucket it would have fetched in the first place (one lookup
// more, once) and from then on that index's writes look up and put whole
// buckets, at exactly the whole-bucket arm's cost. Upgrade nodes before
// clients.
func TestOldNodeRefusesPatchOnce(t *testing.T) {
	ctx := context.Background()
	cfg := ilht.Config{SplitThreshold: 5, MergeThreshold: 3, Depth: 20}
	honest, _ := startCluster(t, 1)
	_, olds := startCluster(t, 1)
	node := serveOld(t, olds[0], beforePatches)
	old, err := Dial(ctx, ClusterConfig{Seeds: []string{node.addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = old.Close() })
	if _, err := old.PatchIf(ctx, "k", ilht.DeletePatch(0.5, 0), 0); !errors.Is(err, dht.ErrPatchRefused) {
		t.Fatalf("PatchIf against an old node: %v, want a refusal", err)
	}

	want, err := ilht.New(wholeOnly{honest, honest, honest}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counter := &recordOnlyCounter{Client: old}
	got, err := ilht.New(counter, cfg)
	if err != nil {
		t.Fatal(err)
	}
	extra := growBoth(t, want, got)
	if extra[0] != 1 {
		t.Errorf("the first write cost %d lookups more than a whole-bucket write, want the one refetch", extra[0])
	}
	for i, n := range extra[1:] {
		if n != 0 {
			t.Errorf("write %d cost %d lookups more than a whole-bucket write", i+1, n)
		}
	}
	if counter.records != 1 || counter.patches != 1 {
		t.Errorf("%d record replies and %d patches over %d writes, want one of each: the refusal sticks", counter.records, counter.patches, len(extra))
	}
	sameTree(t, want, got)
	// Reads still ask for, and get, the record alone.
	if _, _, err := got.Search(0.5); err != nil && !errors.Is(err, ilht.ErrKeyNotFound) {
		t.Fatal(err)
	}
	if counter.records != 2 {
		t.Errorf("a Search after the refusal ended in %d record replies, want 1", counter.records-1)
	}
}

// A new client over PR 24's nodes, which patch but do not patch in place
// and say nothing in their ping reply: the client never sends them an
// in-place patch, the index takes each such refusal as a WriteIf of the
// whole bucket at no lookup, and so grows the tree a new node grows, at
// the same cost op for op.
func TestInPlacePatchOfAnOldNodeWritesWhole(t *testing.T) {
	ctx := context.Background()
	cfg := ilht.Config{SplitThreshold: 5, MergeThreshold: 3, Depth: 20}
	honest, _ := startCluster(t, 1)
	_, olds := startCluster(t, 1)
	node := serveOld(t, olds[0], beforeFeatures)
	old, err := Dial(ctx, ClusterConfig{Seeds: []string{node.addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = old.Close() })
	want, err := ilht.New(honest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counter := &recordOnlyCounter{Client: old}
	got, err := ilht.New(counter, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range growBoth(t, want, got) {
		if n != 0 {
			t.Errorf("write %d cost %d lookups more over the old node", i, n)
		}
	}
	if counter.inPlace == 0 || counter.patches == 0 || node.inPlace.Load() != 0 {
		t.Errorf("%d in-place patches asked for, %d of them sent, %d patches: want the record patches and none in place on the wire",
			counter.inPlace, node.inPlace.Load(), counter.patches)
	}
	sameTree(t, want, got)
}

// A PR 24 client's handshake against a new node: the ping reply's
// feature word follows the status, which is all that handshake read, and
// it read no further (it never asked whether the payload had ended).
func TestOldClientHandshakesWithANewNode(t *testing.T) {
	_, srvs := startCluster(t, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srvs[0].Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// PR 24's handshake, less its deadline handling.
	if _, err := conn.Write(append([]byte(wireMagic), buildFrame(0, dht.OpPing, nil)...)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(conn, 256)
	body, err := readFrameBody(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if br.Buffered() != 0 {
		t.Fatal("unexpected bytes after ping response")
	}
	c := cursor{b: body[frameHeaderLen:]}
	if status, err := c.u8(); err != nil || status != statusOK {
		t.Fatalf("ping rejected (status %d, %v)", status, err)
	}
	// What follows is the word a new client reads.
	if f, err := c.uvarint(); err != nil || f&featInPlacePatch == 0 || !c.empty() {
		t.Errorf("after the status: features %b, %v, %d bytes more", f, err, len(c.b))
	}
}

// A new client over nodes that read no hint on a getbatch: their handshake
// does not offer the hinted form, so none is sent them, and they answer
// every swept slot whole, which a range query takes as it takes a bucket
// over dht.Local — the same records at the same cost.
func TestProbeBatchOfAnOldNodeIsWhole(t *testing.T) {
	ctx := context.Background()
	_, olds := startCluster(t, 1)
	node := serveOld(t, olds[0], beforeHintedBatch)
	old, err := Dial(ctx, ClusterConfig{Seeds: []string{node.addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = old.Close() })
	cfg := ilht.Config{SplitThreshold: 8, MergeThreshold: 4, Depth: 20}
	want, err := ilht.New(dht.NewLocal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ilht.New(old, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 300; i++ {
		rec := record.Record{Key: rng.Float64(), Value: []byte{byte(i), byte(i >> 8)}}
		for _, ix := range []*ilht.Index{want, got} {
			if _, err := ix.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	batches := olds[0].Metrics().Batch.Ops
	for i := 0; i < 40; i++ {
		lo := rng.Float64() * 0.9
		hi := lo + rng.Float64()*(1-lo)/2
		wantRecs, wantCost, err := want.Range(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		recs, cost, err := got.Range(lo, hi)
		if err != nil || !reflect.DeepEqual(recs, wantRecs) || cost != wantCost {
			t.Fatalf("Range(%v, %v) over the old node: %d records at %+v, %v; over dht.Local %d at %+v",
				lo, hi, len(recs), cost, err, len(wantRecs), wantCost)
		}
	}
	if swept := olds[0].Metrics().Batch.Ops - batches; swept == 0 || node.hintedBatches.Load() != 0 {
		t.Errorf("the old node served %d multi-gets, %d of them hinted: want sweeps, none hinted", swept, node.hintedBatches.Load())
	}
}

// An older client's getbatch, the keys and nothing after them, is answered
// by a new node as before the hint existed: each found slot holds the
// stored value, byte for byte. Keys followed by anything but nothing or
// one 8-byte hint are malformed, and charge nothing.
func TestUnhintedBatchIsServedAsBefore(t *testing.T) {
	srv := NewServer()
	bucket := mustAppendValue(t, wideBucket())
	srv.store["bucket"] = bucket
	srv.store["raw"] = []byte{tagRaw, 'v'}
	keys := binary.AppendUvarint(nil, 3)
	for _, k := range []string{"bucket", "raw", "absent"} {
		keys = appendLenString(keys, k)
	}
	want := appendLenBytes(append(appendUv([]byte{statusOK}, 3), statusOK), bucket)
	want = append(appendLenBytes(append(want, statusOK), srv.store["raw"]), statusNotFound)
	if got := srv.applyFrame(buildFrame(1, dht.OpGetBatch, keys)[4:], nil); !bytes.Equal(got, buildFrame(1, dht.OpGetBatch, want)) {
		t.Errorf("a getbatch with no hint was answered with\n%x\nwant\n%x", got, buildFrame(1, dht.OpGetBatch, want))
	}
	before := srv.Metrics().Lookup.Total
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 9} {
		resp := srv.applyFrame(buildFrame(2, dht.OpGetBatch, append(keys, make([]byte, n)...))[4:], nil)
		if c := (cursor{b: resp[4+frameHeaderLen:]}); !bytes.Equal(c.b, append([]byte{statusErr}, errMalformed...)) {
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
			plain, err := ilht.New(wholeOnly{lying, lying, lying}, cfg)
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
// two holders a key, hinted handoff on.
func startNamedCluster(t *testing.T) (*Client, []*Server) {
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
	c, err := Dial(context.Background(), ClusterConfig{Seeds: names, Replicas: 2, HintedHandoff: true, Dialer: dialer})
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

// With two holders a key, a patched write and a whole-bucket write leave
// byte-identical values on every holder after every op — splits and
// merges, their in-place steps patched too, included — at the same cost
// and index and server counters. With one holder dead and hinted handoff
// on, they still cost the same op for op, the live holders still agree
// byte for byte, and what is parked for the dead one is the whole value
// the whole-bucket arm parks — a patch is never parked, for it means
// nothing to a holder that has missed the one before it. (The servers'
// counters part there: a holder a patch cannot reach costs the acting
// serializer the read of the whole value to send it instead.)
func TestPatchedWritesOnEveryHolder(t *testing.T) {
	cfg := ilht.Config{SplitThreshold: 6, MergeThreshold: 4, Depth: 20, LeafCache: true}
	type arm struct {
		srvs    []*Server
		ix      *ilht.Index
		results []string
	}
	counter := &recordOnlyCounter{}
	start := func(hide bool) *arm {
		client, srvs := startNamedCluster(t)
		var d dht.DHT = client
		if hide {
			d = wholeOnly{client, client, client}
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
			var cost ilht.Cost
			var err error
			if del {
				cost, err = a.ix.Delete(rec.Key)
			} else {
				cost, err = a.ix.Insert(rec)
			}
			a.results = append(a.results, dialNoise.ReplaceAllString(fmt.Sprintf("%+v %v", cost, err), ""))
		}
	}
	compare := func(when string, allUp bool, live ...int) {
		t.Helper()
		for i := range patched.results {
			if patched.results[i] != whole.results[i] {
				t.Fatalf("%s: op %d: %s as a patch, %s as a whole bucket", when, i, patched.results[i], whole.results[i])
			}
		}
		for _, i := range live {
			p, w := patched.srvs[i], whole.srvs[i]
			if pl, wl := p.Metrics().Lookup, w.Metrics().Lookup; allUp && pl != wl {
				t.Fatalf("%s: node%d counted %+v as a patch, %+v as a whole bucket", when, i, pl, wl)
			}
			p.mu.Lock()
			w.mu.Lock()
			if !reflect.DeepEqual(p.store, w.store) {
				t.Fatalf("%s: node%d stores differ between the arms (%d keys against %d)", when, i, len(p.store), len(w.store))
			}
			if !reflect.DeepEqual(p.hints, w.hints) {
				t.Errorf("%s: node%d parks different hints in the two arms", when, i)
			}
			for _, keys := range p.hints {
				for key, tv := range keys {
					if v, err := decodeTaggedValue(tv); err != nil {
						t.Errorf("%s: the hint parked for %q on node%d does not decode: %v", when, key, i, err)
					} else if _, ok := v.(*ilht.Bucket); !ok {
						t.Errorf("%s: the hint parked for %q on node%d is a %T, want a whole bucket", when, key, i, v)
					}
				}
			}
			w.mu.Unlock()
			p.mu.Unlock()
		}
		pm, wm := patched.ix.Metrics(), whole.ix.Metrics()
		if pm.Lookup != wm.Lookup || pm.Write != wm.Write || pm.Cache != wm.Cache {
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
	parked := 0
	for _, i := range []int{0, 2} {
		parked += patched.srvs[i].HintBacklog()["node1:7000"]
	}
	if parked == 0 {
		t.Error("nothing was parked for the dead holder")
	}
}
