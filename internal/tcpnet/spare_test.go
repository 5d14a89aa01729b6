package tcpnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/record"
)

// extraRecord is the i-th record the tests below patch into a wideBucket:
// a key between two of its records, and a value told apart from theirs.
func extraRecord(i int) record.Record {
	return record.Record{Key: 0.703125 + (float64(i)+0.5)/75/64, Value: bytes.Repeat([]byte{byte(100 + i)}, 64)}
}

// checkWide reports what is wrong with b as a wideBucket that some of the
// first n extra records were patched into: its label, a record count
// outside 75..75+n, or a record whose value is not the one its key was
// written with.
func checkWide(b *ilht.Bucket, n int) error {
	want := make(map[float64][]byte, 75+n)
	for _, r := range wideBucket().Records {
		want[r.Key] = r.Value
	}
	for i := 0; i < n; i++ {
		r := extraRecord(i)
		want[r.Key] = r.Value
	}
	if b.Label != wideBucket().Label || len(b.Records) < 75 || len(b.Records) > 75+n {
		return fmt.Errorf("bucket %s with %d records", b.Label, len(b.Records))
	}
	for _, r := range b.Records {
		if !bytes.Equal(r.Value, want[r.Key]) {
			return fmt.Errorf("record %v holds % x", r.Key, r.Value)
		}
	}
	return nil
}

// TestStoredBytesStayBehindTheLock pins what lets a node build a patched
// value in the array of the value an earlier patch replaced: no stored
// value's bytes are seen outside the store's lock. A get's and a probe's
// reply cut before a run of patches, a snapshot saved before it, and every
// stored value across a refused patch — which writes into the spare before
// it refuses — stay byte for byte what they were, while the patches cycle
// three values' arrays through the spare. The third value is a quarter
// the length of the others, so that its patches are built in a spare
// more than twice its length.
func TestStoredBytesStayBehindTheLock(t *testing.T) {
	srv := NewServer()
	status := replyBody
	keys := []string{"a", "b", "c"}
	model := map[string]*ilht.Bucket{}
	for _, k := range keys {
		model[k] = wideBucket()
		if k == "c" {
			model[k].Records = model[k].Records[:18]
		}
		payload := append(appendKey(nil, k), mustAppendValue(t, model[k])...)
		if resp := serve(srv, buildFrame(1, dht.OpPut, payload), nil); status(resp)[0] != statusOK {
			t.Fatalf("put %s answered % x", k, status(resp))
		}
	}
	stored := func(k string) []byte {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return bytes.Clone(storedValue(srv, k))
	}
	checkStore := func(when string) {
		t.Helper()
		for _, k := range keys {
			if got, want := stored(k), mustAppendValue(t, model[k]); !bytes.Equal(got, want) {
				t.Fatalf("%s: %s stores\n%x\nwant\n%x", when, k, got, want)
			}
		}
	}
	get := serve(srv, buildFrame(2, dht.OpGet, appendKey(nil, "a")), nil)
	probe := serve(srv, buildFrame(3, dht.OpGet, recordGet("b", model["b"].Records[9].Key)), nil)
	replies := [][]byte{bytes.Clone(get), bytes.Clone(probe)}
	path := filepath.Join(t.TempDir(), "node.snap")
	if err := srv.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := map[string][]byte{}
	for _, k := range keys {
		saved[k] = mustAppendValue(t, model[k])
	}

	patch := func(k string, p []byte, delta float64) []byte {
		return status(serve(srv, buildFrame(4, dht.OpPatchIf, probePatch(k, ilht.ProbeHint(delta, false), p)), nil))
	}
	for i := 0; i < 60; i++ {
		k, rec := keys[i%3], extraRecord(i/3%10)
		if i/30%2 == 0 {
			model[k] = upserted(model[k], rec)
			if st := patch(k, ilht.UpsertPatch(rec, 0, 20), rec.Key); st[0] != statusOK {
				t.Fatalf("upsert %d answered % x", i, st)
			}
		} else {
			model[k], _ = deleted(model[k], rec.Key)
			if st := patch(k, ilht.DeletePatch(rec.Key, 0), rec.Key); st[0] != statusOK {
				t.Fatalf("delete %d answered % x", i, st)
			}
		}
		checkStore(fmt.Sprintf("after patch %d", i))
		// Refused once the list is written out (one record past the weight
		// bound) or part way (a delete of a key the leaf does not hold).
		over := extraRecord(40)
		if st := patch(k, ilht.UpsertPatch(over, 10, 20), over.Key); st[0] != statusPatchRefused {
			t.Fatalf("an upsert past the bound answered % x", st)
		}
		if st := patch(k, ilht.DeletePatch(over.Key, 0), over.Key); st[0] != statusPatchRefused {
			t.Fatalf("a delete of an absent key answered % x", st)
		}
		checkStore(fmt.Sprintf("after the refusals following patch %d", i))
	}

	for i, r := range [][]byte{get, probe} {
		if !bytes.Equal(r, replies[i]) {
			t.Errorf("reply %d changed after the patches:\n%x\nwas\n%x", i, r, replies[i])
		}
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, file) {
		t.Errorf("the snapshot file changed after the patches (%v)", err)
	}
	restored := NewServer()
	if err := restored.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !bytes.Equal(storedValue(restored, k), saved[k]) {
			t.Errorf("the snapshot restores %s as\n%x\nwant what was stored at the save\n%x", k, storedValue(restored, k), saved[k])
		}
	}
	// The restored values are the restored store's own too: patching one
	// leaves the others as they were loaded.
	srv = restored
	rec := extraRecord(0)
	if st := patch("a", ilht.UpsertPatch(rec, 0, 20), rec.Key); st[0] != statusOK {
		t.Fatalf("an upsert on the restored node answered % x", st)
	}
	for _, k := range keys[1:] {
		if !bytes.Equal(stored(k), saved[k]) {
			t.Errorf("patching the restored a changed %s", k)
		}
	}
}

// TestConcurrentReadsPatchesAndSnapshots races gets, record probes,
// patches and snapshots on one node. Under the race detector it fails if
// a reply or a snapshot reads a stored value's bytes outside the store's
// lock, where a later patch may be building its value in them; without it,
// every bucket a get returns or a snapshot restores must still be one the
// patches made.
func TestConcurrentReadsPatchesAndSnapshots(t *testing.T) {
	ctx := context.Background()
	c, servers := startCluster(t, 1)
	srv := servers[0]
	keys := []string{"a", "b"}
	for _, k := range keys {
		if err := c.Put(ctx, k, wideBucket()); err != nil {
			t.Fatal(err)
		}
	}
	const rounds, extra = 150, 8
	var wg sync.WaitGroup
	errs := make(chan error, 3*len(keys)+1) // one send at most from each goroutine run starts
	run := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := f(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for _, k := range keys {
		run(func(i int) error { // one writer a key: every patch applies
			rec := extraRecord(i / 2 % extra)
			p := ilht.UpsertPatch(rec, 0, 20)
			if i%2 == 1 {
				p = ilht.DeletePatch(rec.Key, 0)
			}
			_, err := c.Patch(ctx, k, ilht.ProbeHint(rec.Key, false), p)
			return err
		})
		run(func(int) error {
			v, err := c.Get(ctx, k)
			if err != nil {
				return err
			}
			b, ok := v.(*ilht.Bucket)
			if !ok {
				return fmt.Errorf("get %s: %T", k, v)
			}
			return checkWide(b, extra)
		})
		run(func(i int) error {
			want := wideBucket().Records[i%75]
			v, err := c.Probe(ctx, k, ilht.ProbeHint(want.Key, true))
			if err != nil {
				return err
			}
			if r, ok := v.(*ilht.BucketRecord); !ok || !r.Found || !bytes.Equal(r.Record.Value, want.Value) {
				return fmt.Errorf("probe %s for %v: %#v", k, want.Key, v)
			}
			return nil
		})
	}
	path := filepath.Join(t.TempDir(), "node.snap")
	run(func(i int) error {
		if i%5 != 0 {
			return nil
		}
		if err := srv.SaveSnapshot(path); err != nil {
			return err
		}
		restored := NewServer()
		if err := restored.LoadSnapshot(path); err != nil {
			return err
		}
		for _, k := range keys {
			v, err := decodeTaggedValue(storedValue(restored, k))
			if err != nil {
				return fmt.Errorf("snapshot of %s: %w", k, err)
			}
			b, ok := v.(*ilht.Bucket)
			if !ok {
				return fmt.Errorf("snapshot of %s: %T", k, v)
			}
			if err := checkWide(b, extra); err != nil {
				return fmt.Errorf("snapshot of %s: %w", k, err)
			}
		}
		return nil
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPatchedStoreMemoryIsBounded runs an index over one node through
// growth, splits, deletes and merges, and holds the node's arrays to its
// data after every operation: the capacities of the stored values and of
// the spare sum to at most twice the stored length plus one array of
// at most twice the longest value stored. A stored value never keeps an
// array more than twice its length, however large the spare a patch built
// it in.
func TestPatchedStoreMemoryIsBounded(t *testing.T) {
	c, servers := startCluster(t, 1)
	srv := servers[0]
	ix, err := ilht.New(c, ilht.Config{SplitThreshold: 24, MergeThreshold: 12, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	check := func(when string) {
		t.Helper()
		srv.mu.Lock()
		defer srv.mu.Unlock()
		sumCap, sumLen := cap(srv.spare), 0
		for k := range srv.store {
			v := storedValue(srv, k)
			sumCap, sumLen = sumCap+cap(v), sumLen+len(v)
			longest = max(longest, len(v))
			if cap(v) > 2*len(v) {
				t.Fatalf("%s: %q keeps %d bytes of array for %d", when, k, cap(v), len(v))
			}
		}
		if sumCap > 2*sumLen+2*longest {
			t.Fatalf("%s: %d bytes of array for %d stored (the longest value %d)", when, sumCap, sumLen, longest)
		}
	}
	rng := rand.New(rand.NewSource(37))
	keys := make([]float64, 600)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i], Value: bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(96))}); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("insert %d", i))
	}
	splits := ix.Metrics().Lookup.Splits
	for i, k := range keys[:560] {
		if _, err := ix.Delete(k); err != nil && !errors.Is(err, ilht.ErrKeyNotFound) {
			t.Fatal(err)
		}
		check(fmt.Sprintf("delete %d", i))
	}
	if m := ix.Metrics(); splits < 20 || m.Lookup.Merges < 10 {
		t.Fatalf("the script split %d times and merged %d times; it is meant to do both often", splits, m.Lookup.Merges)
	}
}

// TestConnectionReleasesLargeFrames: one 8 MB put and the remove of its
// key over one connection leave the heap about where it was. Neither end
// keeps a frame buffer larger than maxPooledBuf for the connection's
// life: the node drops its request and reply buffers past that size once
// the reply is written, as the client drops its frames and its write
// queue's spare.
func TestConnectionReleasesLargeFrames(t *testing.T) {
	ctx := context.Background()
	c, err := Dial(ctx, ClusterConfig{Seeds: startServers(t, 1), PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(ctx, "small", []byte("v")); err != nil {
		t.Fatal(err)
	}
	const size = 8 << 20
	before := liveHeap()
	if err := c.Put(ctx, "big", make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(ctx, "big"); err != nil {
		t.Fatal(err)
	}
	if grown := int64(liveHeap()) - int64(before); grown > size/2 {
		t.Errorf("the heap holds %d bytes more after the put and remove of %d bytes, over one live connection", grown, size)
	}
	if _, err := c.Get(ctx, "small"); err != nil {
		t.Fatal(err)
	}
}

// liveHeap is the bytes of heap objects that survive a collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
