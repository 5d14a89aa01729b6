package tcpnet

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"

	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/record"
)

// point is a value with no stored form: neither a []byte nor a
// dht.WireValue.
type point struct{ X, Y int }

// wantUnstorable asserts err is the refusal of a point: permanent, so a
// retry policy does not spin on it, and naming the type.
func wantUnstorable(t *testing.T, op string, err error) {
	t.Helper()
	if err == nil || dht.IsTransient(err) || !strings.Contains(err.Error(), "tcpnet.point") {
		t.Errorf("%s of a point = %v, want a permanent error naming the type", op, err)
	}
}

// TestUnstorableValueFailsBeforeAnyIO: a value with no stored form fails
// every write that carries one before a frame is sent — also with a
// holder down, where an epoch-tagged value's write fails over to the
// other holder — and a batch fails that one slot and ships the rest.
func TestUnstorableValueFailsBeforeAnyIO(t *testing.T) {
	ctx := context.Background()
	addrs, srvs := startServerMap(t, 3)
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2, FailoverWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	served := func() (n int64) {
		for _, s := range srvs {
			n += s.Metrics().Lookup.Total
		}
		return n
	}

	before := served()
	errs := c.PutBatch(ctx, []dht.KV{{Key: "a", Val: []byte("a")}, {Key: "b", Val: point{1, 2}}, {Key: "c", Val: []byte("c")}})
	wantUnstorable(t, "PutBatch slot", errs[1])
	if n := served() - before; n != 4 {
		t.Errorf("two slots on two holders each were served as %d lookups, want 4", n)
	}
	for _, i := range []int{0, 2} {
		key := string(rune('a' + i))
		if v, err := c.Get(ctx, key); errs[i] != nil || err != nil || string(v.([]byte)) != key {
			t.Errorf("PutBatch slot %d = %v; Get(%s) = %v, %v", i, errs[i], key, v, err)
		}
	}
	if _, err := c.Get(ctx, "b"); err != dht.ErrNotFound {
		t.Errorf("the refused slot was stored: Get(b) = %v", err)
	}

	key := "k"
	holders := c.holders(key) // every write tries the primary first
	down := holders[0].addr
	_ = srvs[down].Close()
	// The client finds the primary's connections dead on their next use: a
	// request reaching one fails its read, and its one redial fails too,
	// so a storable write fails over to the secondary.
	before = served()
	wantUnstorable(t, "Put", c.Put(ctx, key, point{1, 2}))
	wantUnstorable(t, "Write", c.Write(ctx, key, point{1, 2}))
	wantUnstorable(t, "PutIf", c.PutIf(ctx, key, point{1, 2}, 0))
	wantUnstorable(t, "CreateIf", c.CreateIf(ctx, key, point{1, 2}))
	wantUnstorable(t, "WriteIf", c.WriteIf(ctx, key, point{1, 2}, 0))
	if n := served() - before; n != 0 {
		t.Errorf("refused writes reached the servers: %d lookups served", n)
	}
	// A put of an epoch-tagged value succeeds, stored on the secondary.
	if err := c.Put(ctx, key, wideBucket()); err != nil {
		t.Fatal(err)
	}
	if !srvs[holders[1].addr].Has(key) {
		t.Error("a storable put with the primary down left no copy on the secondary")
	}
}

// TestSnapshotWithRetiredFormIsRefused: a snapshot holding a value in the
// retired gob form (tag 1), bare or under an epoch prefix, is refused at
// load with an error naming the key, and the loading node's store is left
// as it was.
func TestSnapshotWithRetiredFormIsRefused(t *testing.T) {
	dir := t.TempDir()
	for name, planted := range map[string][]byte{
		"bare":        {tagRetired, 0x0f, 0xff},
		"under epoch": {tagEpoch, 5, tagRetired, 0x0f, 0xff},
	} {
		src := NewServer()
		plantValue(src, "fine", []byte{tagRaw, 'v'})
		plantValue(src, "old-bucket", planted)
		path := dir + "/" + strings.ReplaceAll(name, " ", "-") + ".snap"
		if err := src.SaveSnapshot(path); err != nil {
			t.Fatal(err)
		}
		dst := NewServer()
		plantValue(dst, "mine", []byte{tagRaw, 'm'})
		err := dst.LoadSnapshot(path)
		if err == nil || !strings.Contains(err.Error(), `"old-bucket"`) {
			t.Errorf("%s: LoadSnapshot = %v, want a refusal naming the key", name, err)
		}
		if len(dst.store) != 1 || !bytes.Equal(storedValue(dst, "mine"), []byte{tagRaw, 'm'}) {
			t.Errorf("%s: the refused load changed the store: %q", name, dst.store)
		}
	}
}

// TestSnapshotOfThePreviousFormatIsRefused: a snapshot written in the
// format before this one holds buckets in a wire version no node decodes,
// projects or patches, so LoadSnapshot refuses it whole, naming the
// format and its buckets' format, and the store stays as it was.
func TestSnapshotOfThePreviousFormatIsRefused(t *testing.T) {
	path := t.TempDir() + "/old.snap"
	old := snapshot{Format: snapshotFormat - 1, Store: map[string][]byte{"#": {tagRaw, 'v'}}}
	if err := writeSnapshot(path, old); err != nil {
		t.Fatal(err)
	}
	dst := NewServer()
	plantValue(dst, "mine", []byte{tagRaw, 'm'})
	err := dst.LoadSnapshot(path)
	for _, want := range []string{fmt.Sprintf("snapshot format %d", old.Format), "bucket wire format 2"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadSnapshot = %v, want a refusal naming %q", err, want)
		}
	}
	if len(dst.store) != 1 || !bytes.Equal(storedValue(dst, "mine"), []byte{tagRaw, 'm'}) {
		t.Errorf("the refused load changed the store: %q", dst.store)
	}
}

// TestStoredFormsSnapshotServes: a snapshot of a store holding the index's
// buckets (tagEpoch over tagWire) and raw values (tagRaw) — the forms and
// the container every snapshot since the binary bucket format has held —
// loads on a fresh node, and the index and plain gets read every value
// back.
func TestStoredFormsSnapshotServes(t *testing.T) {
	ctx := context.Background()
	cfg := ilht.Config{SplitThreshold: 8, MergeThreshold: 4, Depth: 20}
	c, servers := startCluster(t, 1)
	ix, err := ilht.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	keys := make([]float64, 80)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i], Value: []byte(fmt.Sprint("r-", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := c.Put(ctx, fmt.Sprint("raw-", i), []byte(fmt.Sprint("raw-", i))); err != nil {
			t.Fatal(err)
		}
	}
	forms := map[string]int{}
	servers[0].mu.Lock()
	for k := range servers[0].store {
		v := storedValue(servers[0], k)
		switch in := innerValue(v); {
		case v[0] == tagEpoch && in[0] == tagWire:
			forms["epoch+wire"]++
		case v[0] == tagRaw:
			forms["raw"]++
		default:
			forms[fmt.Sprintf("% x", v[:2])]++
		}
	}
	servers[0].mu.Unlock()
	if len(forms) != 2 || forms["raw"] != 5 || forms["epoch+wire"] < 8 {
		t.Fatalf("stored forms %v, want buckets as epoch+wire and 5 raw values", forms)
	}
	path := t.TempDir() + "/node.snap"
	if err := servers[0].SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	srv := NewServer()
	if err := srv.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	c2, err := Dial(ctx, ClusterConfig{Seeds: []string{ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c2.Close() })
	ix2, err := ilht.New(c2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if r, _, err := ix2.Search(k); err != nil || string(r.Value) != fmt.Sprint("r-", i) {
			t.Fatalf("Search(%v) after reload = %v, %v", k, r, err)
		}
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprint("raw-", i)
		if v, err := c2.Get(ctx, key); err != nil || string(v.([]byte)) != key {
			t.Fatalf("Get(%s) after reload = %v, %v", key, v, err)
		}
	}
}

// TestLHT8SnapshotServesARange: testdata/lht8-node.snap is the snapshot an
// LHT8 node wrote of a one-node tree (200 inserts of seeded keys at split
// threshold 16). The stored bytes did not change with the wire: this
// build, making the same inserts, stores byte for byte what the snapshot
// holds. Loaded on a node of this wire, the snapshot answers range
// queries, the leaves going out as packed runs, so a query of every
// record reads two bytes a record fewer than the node stores, and more.
func TestLHT8SnapshotServesARange(t *testing.T) {
	ctx := context.Background()
	cfg := ilht.Config{SplitThreshold: 16, MergeThreshold: 8, Depth: 20}
	c, servers := startCluster(t, 1)
	ix, err := ilht.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(50))
	var recs []record.Record
	for i := 0; i < 200; i++ {
		r := record.Record{Key: rng.Float64(), Value: []byte(fmt.Sprintf("value-%03d", i))}
		if _, err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	srv := NewServer()
	if err := srv.LoadSnapshot("testdata/lht8-node.snap"); err != nil {
		t.Fatal(err)
	}
	stored := 0
	servers[0].mu.Lock()
	if len(srv.store) != len(servers[0].store) {
		t.Errorf("the snapshot holds %d values, the same inserts store %d", len(srv.store), len(servers[0].store))
	}
	for k := range servers[0].store {
		if want, got := storedValue(servers[0], k), storedValue(srv, k); !bytes.Equal(got, want) {
			t.Errorf("%q: the snapshot holds %x, the same inserts store %x", k, got, want)
		}
		stored += len(storedValue(srv, k))
	}
	servers[0].mu.Unlock()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	dialer := &byteDialer{addrs: map[string]string{"lht8-node": ln.Addr().String()}}
	c2, err := Dial(ctx, ClusterConfig{Seeds: []string{"lht8-node"}, Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c2.Close() })
	ix2, err := ilht.New(c2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]float64{{0, 1}, {0.2, 0.45}, {0.7, 0.7001}} {
		read := dialer.read.Load()
		got, _, err := ix2.Range(q[0], q[1])
		want := record.FilterRange(nil, recs, q[0], q[1])
		record.SortByKey(got)
		record.SortByKey(want)
		if err != nil || len(got) != len(want) {
			t.Fatalf("Range(%v) from the snapshot = %d records, %v; want %d", q, len(got), err, len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("Range(%v) from the snapshot: record %d is %v, want %v", q, i, got[i], want[i])
			}
		}
		// A run's key takes about 5 bytes of the 8 stored, and its values
		// share one length.
		if n := dialer.read.Load() - read; q == [2]float64{0, 1} && n >= int64(stored-2*len(recs)) {
			t.Errorf("Range(%v) read %d bytes, the node stores %d: the leaves did not go out as packed runs", q, n, stored)
		}
	}
}
