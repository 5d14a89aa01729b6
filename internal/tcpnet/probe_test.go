package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"net"
	"reflect"
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

// wideBucket is a 75-record leaf #0101101 = [0.703125, 0.71875), the
// codec benchmarks' yardstick.
func wideBucket() *ilht.Bucket {
	b := &ilht.Bucket{Label: bitlabel.MustParse("#0101101"), Epoch: 7}
	for i := 0; i < 75; i++ {
		b.Records = append(b.Records, record.Record{Key: 0.703125 + float64(i)/75/64, Value: bytes.Repeat([]byte{byte(i)}, 64)})
	}
	return b
}

// hintedGet is a get request payload carrying a probe hint.
func hintedGet(key string, delta float64) []byte {
	return binary.BigEndian.AppendUint64(appendLenString(nil, key), math.Float64bits(delta))
}

// TestProbeTrimsOnlyWhatTheKindAllows: over the wire a probe of a bucket
// its hint excludes is answered with the header alone; a covering hint,
// a plain get, and every stored form the server cannot ask a trimmer
// about — raw bytes, gob, gob under an epoch, a kind with no trimmer —
// are answered whole.
func TestProbeTrimsOnlyWhatTheKindAllows(t *testing.T) {
	ctx := context.Background()
	c, servers := startCluster(t, 1)
	srv := servers[0]
	b := wideBucket()
	node := &pht.Node{Label: bitlabel.MustParse("#010"), Leaf: true, Epoch: 3,
		Records: []record.Record{{Key: 0.3, Value: []byte("thirty")}}}
	for key, v := range map[string]dht.Value{
		"bucket": b,
		"raw":    []byte("just bytes, at least as long as a bucket header is"),
		"gob":    &payload{N: 7, S: "seven"},
		"epoch":  &dhttest.EpochValue{Epoch: 9, Body: "nine"},
		"node":   node,
	} {
		if err := c.Put(ctx, key, v); err != nil {
			t.Fatal(err)
		}
	}
	outside, inside := math.Float64bits(0.1), math.Float64bits(0.71)

	v, err := c.Probe(ctx, "bucket", outside)
	if h, ok := v.(*ilht.BucketHeader); err != nil || !ok || h.Label != b.Label {
		t.Fatalf("probe with an excluded key: %#v, %v, want the header", v, err)
	}
	for name, fetch := range map[string]func() (dht.Value, error){
		"probe with a covered key": func() (dht.Value, error) { return c.Probe(ctx, "bucket", inside) },
		"plain get":                func() (dht.Value, error) { return c.Get(ctx, "bucket") },
	} {
		v, err := fetch()
		got, ok := v.(*ilht.Bucket)
		if err != nil || !ok || got.Label != b.Label || len(got.Records) != len(b.Records) {
			t.Errorf("%s: %T, %v, want the whole bucket", name, v, err)
		}
	}
	for _, key := range []string{"raw", "gob", "epoch", "node"} {
		want, err := c.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		for _, hint := range []uint64{outside, inside, 0, math.MaxUint64} {
			got, err := c.Probe(ctx, key, hint)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("probe of %q with hint %#x: %v, %v, want what a get returns", key, hint, got, err)
			}
		}
	}
	if _, err := c.Probe(ctx, "absent", outside); err != dht.ErrNotFound {
		t.Errorf("probe of an absent key: %v", err)
	}

	// On the wire: the trimmed reply is the tags, the kind and the
	// bucket's header; the server counts a probe as the get it is.
	before := srv.Metrics()
	whole := srv.applyFrame(buildFrame(1, dht.OpGet, appendLenString(nil, "bucket"))[4:], nil)
	cut := srv.applyFrame(buildFrame(2, dht.OpGet, hintedGet("bucket", 0.1))[4:], nil)
	miss := srv.applyFrame(buildFrame(3, dht.OpGet, hintedGet("absent", 0.1))[4:], nil)
	if len(whole) < 5000 || len(cut) > 4+frameHeaderLen+1+40 || !bytes.HasPrefix(whole[4+frameHeaderLen:], cut[4+frameHeaderLen:]) {
		t.Errorf("whole reply %d bytes, trimmed reply %d bytes: want a short prefix", len(whole), len(cut))
	}
	if miss[4+frameHeaderLen] != statusNotFound {
		t.Errorf("hinted get of an absent key: status %d", miss[4+frameHeaderLen])
	}
	if after := srv.Metrics(); after.Lookup.Total-before.Lookup.Total != 3 || after.Lookup.FailedGets-before.Lookup.FailedGets != 1 {
		t.Errorf("three gets, one a miss, counted as %d lookups, %d failed gets",
			after.Lookup.Total-before.Lookup.Total, after.Lookup.FailedGets-before.Lookup.FailedGets)
	}

	// The hint is exactly eight bytes after a get's key, and nothing else
	// takes one.
	for name, frame := range map[string][]byte{
		"hinted take":   buildFrame(4, dht.OpTake, hintedGet("bucket", 0.1)),
		"hinted remove": buildFrame(5, dht.OpRemove, hintedGet("bucket", 0.1)),
		"short hint":    buildFrame(6, dht.OpGet, hintedGet("bucket", 0.1)[:len("bucket")+8]),
		"long hint":     buildFrame(7, dht.OpGet, append(hintedGet("bucket", 0.1), 0)),
	} {
		resp := srv.applyFrame(frame[4:], nil)
		if resp[4+frameHeaderLen] != statusErr || string(resp[4+frameHeaderLen+1:]) != errMalformed {
			t.Errorf("%s: answered % x, want malformed", name, resp[4+frameHeaderLen:])
		}
	}
	if _, err := c.Get(ctx, "bucket"); err != nil {
		t.Errorf("the hinted take or remove went through: %v", err)
	}

	// Trimming is arithmetic on the stored bytes under the store lock.
	req := buildFrame(8, dht.OpGet, hintedGet("bucket", 0.1))[4:]
	out := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() { out = srv.applyFrame(req, out[:0]) }); n != 0 {
		t.Errorf("serving a hinted get: %v allocations, want 0", n)
	}
}

// A node restarted from a snapshot the PR 13 build wrote holds gob
// buckets. The server cannot look inside them, so probes of them come
// back whole and the index over them still answers.
func TestProbeOfGobStoredBucketsIsWhole(t *testing.T) {
	ctx := context.Background()
	srv := NewServer()
	if err := srv.LoadSnapshot("testdata/pr13-node.snap"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	c, err := Dial(ctx, ClusterConfig{Seeds: []string{ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	v, err := c.Probe(ctx, bitlabel.Root.Key(), math.Float64bits(0.99))
	if b, ok := v.(*ilht.Bucket); err != nil || !ok || b.Contains(0.99) {
		t.Fatalf("probe of the gob-stored leftmost leaf for a key it excludes: %#v, %v, want the bucket", v, err)
	}
	ix, err := ilht.New(c, ilht.Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 60; i++ {
		if _, _, err := ix.Search(rng.Float64()); err != nil {
			t.Fatalf("record %d of the snapshot: %v", i, err)
		}
	}
	if tags := storedTags(t, srv); tags[tagGob] != srv.Len() {
		t.Errorf("stored forms %v: reads rewrote the gob buckets", tags)
	}
}

// serveLying serves the framed protocol from a real server's store, but
// answers every hinted get as if the hint were a key no leaf covers: with
// the header alone, also when the bucket does cover the key asked for.
func serveLying(t *testing.T, real *Server) string {
	t.Helper()
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
					if dht.OpKind(body[8]) == dht.OpGet {
						c := cursor{b: body[frameHeaderLen:]}
						if _, err := c.lenBytes(); err == nil && len(c.b) == 8 {
							binary.BigEndian.PutUint64(c.b, math.Float64bits(-1))
						}
					}
					if _, err := conn.Write(real.applyFrame(body, nil)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// A header proves a leaf exists and steers the search past it; it is
// never taken for the leaf that holds the key. Against a peer that trims
// everything, each lookup's last probe comes back as a header that does
// cover the key, and the index fetches that bucket again, whole, with a
// plain get: same answers, one more lookup each.
func TestCoveringHeaderIsRefetchedNotTrusted(t *testing.T) {
	ctx := context.Background()
	honest, servers := startCluster(t, 1)
	cfg := ilht.Config{SplitThreshold: 4, Depth: 20}
	builder, err := ilht.New(honest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	keys := make([]float64, 40)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := builder.Insert(record.Record{Key: keys[i], Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}

	lying, err := Dial(ctx, ClusterConfig{Seeds: []string{serveLying(t, servers[0])}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lying.Close() })
	v, err := lying.Probe(ctx, bitlabel.Root.Key(), math.Float64bits(0))
	if h, ok := v.(*ilht.BucketHeader); err != nil || !ok || !keyspace.IntervalOf(h.Label).Contains(0) {
		t.Fatalf("the lying peer answered a probe for a covered key with %#v, %v", v, err)
	}
	ix, err := ilht.New(lying, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		want, wantCost, err := builder.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		got, cost, err := ix.Search(k)
		if err != nil || got.Key != want.Key || len(got.Value) != 1 || got.Value[0] != byte(i) {
			t.Fatalf("Search(%v) through the lying peer: %v, %v", k, got, err)
		}
		if cost.Lookups != wantCost.Lookups+1 {
			t.Errorf("Search(%v): %d lookups through the lying peer, %d through the honest one, want one refetch more", k, cost.Lookups, wantCost.Lookups)
		}
	}
	// Writes go through lookups too: the bucket they clone and CAS is the
	// refetched one.
	if _, err := ix.Insert(record.Record{Key: 0.123456, Value: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Delete(keys[0]); err != nil {
		t.Fatal(err)
	}
	if err := builder.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n, err := builder.Count(); err != nil || n != len(keys) {
		t.Errorf("Count = %d, %v, want %d", n, err, len(keys))
	}
}

// With two holders a key and the first one tried dead, the probe moves to
// the other holder with its hint: the survivor still trims.
func TestProbeFailsOverWithItsHint(t *testing.T) {
	ctx := context.Background()
	addrs, srvs := startServerMap(t, 3)
	agg := &metrics.Counters{}
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2, Counters: agg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	b := wideBucket()
	if err := c.Put(ctx, "bucket", b); err != nil {
		t.Fatal(err)
	}
	owners := c.owners("bucket")
	if err := srvs[owners[0].addr].Close(); err != nil {
		t.Fatal(err)
	}
	// A hedged duplicate starts at the primary, a first read at the other
	// holder: between them both orders of the failover walk are covered.
	for name, pctx := range map[string]context.Context{"primary first": dht.MarkHedgeAttempt(ctx), "secondary first": ctx} {
		before := agg.Snapshot().Health.Failovers
		v, err := c.Probe(pctx, "bucket", math.Float64bits(0.1))
		if h, ok := v.(*ilht.BucketHeader); err != nil || !ok || h.Label != b.Label {
			t.Errorf("%s: probe with an excluded key: %#v, %v, want the header", name, v, err)
		}
		v, err = c.Probe(pctx, "bucket", math.Float64bits(0.71))
		if got, ok := v.(*ilht.Bucket); err != nil || !ok || len(got.Records) != len(b.Records) {
			t.Errorf("%s: probe with a covered key: %T, %v, want the whole bucket", name, v, err)
		}
		if failed := agg.Snapshot().Health.Failovers - before; (name == "primary first") != (failed == 2) {
			t.Errorf("%s: %d failovers", name, failed)
		}
	}
}
