package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
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

// hintedGet is a get request payload carrying a probe hint: the bucket
// is wanted.
func hintedGet(key string, delta float64) []byte {
	return binary.BigEndian.AppendUint64(appendKey(nil, key), ilht.ProbeHint(delta, false))
}

// recordGet is hintedGet for a prober that wants delta's record alone.
func recordGet(key string, delta float64) []byte {
	return binary.BigEndian.AppendUint64(appendKey(nil, key), ilht.ProbeHint(delta, true))
}

// TestProbeTrimsOnlyWhatTheKindAllows: over the wire a probe of a bucket
// its hint excludes is answered with the leaf's label alone, and one that
// asks for a covered key's record with label and record; a covering hint
// that wants the bucket, a plain get, and every stored form the server
// cannot ask a projector about — raw bytes, kinds with no projector — are
// answered whole.
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
		"epoch":  &dhttest.EpochValue{Epoch: 9, Body: "nine"},
		"node":   node,
	} {
		if err := c.Put(ctx, key, v); err != nil {
			t.Fatal(err)
		}
	}
	outside, inside := ilht.ProbeHint(0.1, false), ilht.ProbeHint(0.71, false)
	present, absent := b.Records[20], 0.7101

	for name, hint := range map[string]uint64{"bucket": outside, "record": ilht.ProbeHint(0.1, true)} {
		v, err := c.Probe(ctx, "bucket", hint)
		if h, ok := v.(*ilht.BucketHeader); err != nil || !ok || h.Label != b.Label {
			t.Fatalf("%s probe with an excluded key: %#v, %v, want the header", name, v, err)
		}
	}
	v, err := c.Probe(ctx, "bucket", ilht.ProbeHint(present.Key, true))
	if r, ok := v.(*ilht.BucketRecord); err != nil || !ok || r.Label != b.Label || !r.Found ||
		r.Record.Key != 0 || !bytes.Equal(r.Record.Value, present.Value) {
		t.Fatalf("record probe with a present key: %#v, %v, want its record's value (the key is the hint's)", v, err)
	}
	v, err = c.Probe(ctx, "bucket", ilht.ProbeHint(absent, true))
	if r, ok := v.(*ilht.BucketRecord); err != nil || !ok || r.Label != b.Label || r.Found {
		t.Fatalf("record probe with a covered, absent key: %#v, %v, want a reply without a record", v, err)
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
	for _, key := range []string{"raw", "epoch", "node"} {
		want, err := c.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		for _, hint := range []uint64{outside, inside, ilht.ProbeHint(0.3, true), 0, math.MaxUint64} {
			got, err := c.Probe(ctx, key, hint)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("probe of %q with hint %#x: %v, %v, want what a get returns", key, hint, got, err)
			}
		}
	}
	if _, err := c.Probe(ctx, "absent", outside); err != dht.ErrNotFound {
		t.Errorf("probe of an absent key: %v", err)
	}

	// On the wire: the trimmed reply is the status, tagWire, the kind, a
	// marker and the bucket's label, the record reply a marker and the
	// label too, then the record's value; the server counts a probe as the
	// get it is. (TestProbeReplyBytes pins every form to the byte.)
	before := srv.Metrics()
	whole := serve(srv, buildFrame(1, dht.OpGet, appendKey(nil, "bucket")), nil)
	cut := serve(srv, buildFrame(2, dht.OpGet, hintedGet("bucket", 0.1)), nil)
	miss := serve(srv, buildFrame(3, dht.OpGet, hintedGet("absent", 0.1)), nil)
	one := serve(srv, buildFrame(4, dht.OpGet, recordGet("bucket", present.Key)), nil)
	whole, cut, miss, one = replyBody(whole), replyBody(cut), replyBody(miss), replyBody(one)
	label, _ := b.Label.MarshalBinary()
	if len(whole) < 5000 || len(cut) != 4+len(label) || !bytes.HasSuffix(cut, label) {
		t.Errorf("whole reply %d bytes, trimmed reply %x: want the label behind four bytes", len(whole), cut)
	}
	if miss[0] != statusNotFound {
		t.Errorf("hinted get of an absent key: status %d", miss[0])
	}
	// Past the label: the value, to the reply's end.
	if want := len(cut) + len(present.Value); len(one) != want || !bytes.HasSuffix(one, present.Value) {
		t.Errorf("record reply %d bytes, want %d ending in the record's value", len(one), want)
	}
	if after := srv.Metrics(); after.Lookup.Total-before.Lookup.Total != 4 || after.Lookup.FailedGets-before.Lookup.FailedGets != 1 {
		t.Errorf("four gets, one a miss, counted as %d lookups, %d failed gets",
			after.Lookup.Total-before.Lookup.Total, after.Lookup.FailedGets-before.Lookup.FailedGets)
	}

	// The hint is exactly eight bytes after a get's key, and nothing else
	// takes one.
	for name, frame := range map[string][]byte{
		"hinted take":   buildFrame(5, dht.OpTake, hintedGet("bucket", 0.1)),
		"hinted remove": buildFrame(6, dht.OpRemove, hintedGet("bucket", 0.1)),
		"record take":   buildFrame(7, dht.OpTake, recordGet("bucket", present.Key)),
		"short hint":    buildFrame(8, dht.OpGet, hintedGet("bucket", 0.1)[:len("bucket")+8]),
		"long hint":     buildFrame(9, dht.OpGet, append(recordGet("bucket", 0.1), 0)),
	} {
		resp := replyBody(serve(srv, frame, nil))
		if resp[0] != statusErr || string(resp[1:]) != errMalformed {
			t.Errorf("%s: answered % x, want malformed", name, resp)
		}
	}
	if _, err := c.Get(ctx, "bucket"); err != nil {
		t.Errorf("the hinted take or remove went through: %v", err)
	}

	// The reply is built from the stored bytes under the store lock.
	out := make([]byte, 0, 256)
	for name, payload := range map[string][]byte{
		"header": hintedGet("bucket", 0.1),
		"record": recordGet("bucket", present.Key),
		"absent": recordGet("bucket", absent),
	} {
		req := buildFrame(10, dht.OpGet, payload)
		if n := testing.AllocsPerRun(200, func() { serve(srv, req, &out) }); n != 0 {
			t.Errorf("serving a hinted get (%s): %v allocations, want 0", name, n)
		}
	}
}

// serveLying serves the framed protocol from a real server's store, but
// answers every hinted get as if the hint were a key no leaf covers: with
// the header alone, also when the bucket does cover the key asked for.
func serveLying(t *testing.T, real *Server) string {
	t.Helper()
	return serveRehinted(t, real, func(uint64) uint64 { return ilht.ProbeHint(1, false) })
}

// serveRehinted serves the framed protocol from a real server's store,
// with every get's hint passed through rehint first.
func serveRehinted(t *testing.T, real *Server, rehint func(uint64) uint64) string {
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
				fr := frameReader{br: br}
				for {
					id, body, err := fr.next()
					if err != nil {
						return
					}
					if dht.OpKind((*body)[0]) == dht.OpGet {
						c := cursor{b: (*body)[1:]}
						if _, err := c.key(new(keyScratch)); err == nil && len(c.b) == 8 {
							binary.BigEndian.PutUint64(c.b, rehint(binary.BigEndian.Uint64(c.b)))
						}
					}
					resp, off := real.applyFrame(id, *body, nil)
					if _, err := conn.Write(resp[off:]); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// growHonestIndex builds a 40-record tree through an honest client: what
// the lying-peer tests then read through a peer that is not. Record i's
// value is the byte i.
func growHonestIndex(t *testing.T, honest *Client) (ilht.Config, *ilht.Index, []float64) {
	t.Helper()
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
	return cfg, builder, keys
}

// A header proves a leaf exists and steers the search past it; it is
// never taken for the leaf that holds the key. Against a peer that trims
// everything, each lookup's last probe comes back as a header that does
// cover the key, and the index fetches that bucket again, whole, with a
// plain get: same answers, one more lookup each.
func TestCoveringHeaderIsRefetchedNotTrusted(t *testing.T) {
	ctx := context.Background()
	honest, servers := startCluster(t, 1)
	cfg, builder, keys := growHonestIndex(t, honest)

	lying, err := Dial(ctx, ClusterConfig{Seeds: []string{serveLying(t, servers[0])}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lying.Close() })
	v, err := lying.Probe(ctx, bitlabel.Root.Key(), ilht.ProbeHint(0, true))
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

// lyingProber is a peer whose honest answer to a record probe is tampered
// with on its way to the index.
type lyingProber struct {
	*Client
	lie func(*ilht.BucketRecord) dht.Value
}

func (p lyingProber) Probe(ctx context.Context, key string, hint uint64) (dht.Value, error) {
	v, err := p.Client.Probe(ctx, key, hint)
	if r, ok := v.(*ilht.BucketRecord); ok && err == nil {
		return p.lie(r), nil
	}
	return v, err
}

// unaskedProber answers every probe as if the record alone were wanted.
type unaskedProber struct{ *Client }

func (p unaskedProber) Probe(ctx context.Context, key string, hint uint64) (dht.Value, error) {
	return p.Client.Probe(ctx, key, hint|ilht.ProbeHint(0, true))
}

// A record reply is believed only as far as it checks out: its label must
// cover the key (the reply carries no key of its own to check: its record
// is the hinted key's). A reply that does not, like a header that claims
// to cover the key, costs one plain get of the bucket and changes no
// answer; and a record reply to a lookup that asked for the bucket is
// never taken for one.
func TestLyingRecordReplyIsRefetchedNotTrusted(t *testing.T) {
	honest, _ := startCluster(t, 1)
	cfg, builder, keys := growHonestIndex(t, honest)
	queries := append(append([]float64(nil), keys...), 0.123456, 0.654321) // the last two are absent
	for name, lie := range map[string]func(*ilht.BucketRecord) dht.Value{
		"a sibling's label": func(r *ilht.BucketRecord) dht.Value {
			r.Label = r.Label.Sibling()
			return r
		},
		"a covering header": func(r *ilht.BucketRecord) dht.Value {
			return &ilht.BucketHeader{Label: r.Label}
		},
	} {
		t.Run(name, func(t *testing.T) {
			lies := 0
			ix, err := ilht.New(lyingProber{honest, func(r *ilht.BucketRecord) dht.Value { lies++; return lie(r) }}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range queries {
				want, wantCost, wantErr := builder.Search(k)
				got, cost, err := ix.Search(k)
				if wantErr != nil && !errors.Is(err, ilht.ErrKeyNotFound) ||
					wantErr == nil && (err != nil || got.Key != want.Key || !bytes.Equal(got.Value, want.Value)) {
					t.Fatalf("Search(%v) through the lying peer: %v, %v; through the honest one: %v, %v", k, got, err, want, wantErr)
				}
				if cost.Lookups != wantCost.Lookups+1 {
					t.Errorf("Search(%v): %d lookups through the lying peer, %d through the honest one, want one refetch more", k, cost.Lookups, wantCost.Lookups)
				}
			}
			// A lookup that wants the bucket never asks for a record.
			if b, _, err := ix.LookupBucket(keys[1]); err != nil || !b.Contains(keys[1]) {
				t.Fatalf("LookupBucket through the lying peer: %v, %v", b, err)
			}
			if lies != len(queries) {
				t.Errorf("%d record replies over %d searches and a bucket lookup", lies, len(queries))
			}
		})
	}

	// A peer that sends record replies nobody asked for: a lookup that
	// wants the bucket fetches it again, and writes clone and CAS that one.
	ix, err := ilht.New(unaskedProber{honest}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, cost, err := ix.LookupBucket(keys[2])
	_, wantCost, _ := builder.LookupBucket(keys[2])
	if err != nil || !b.Contains(keys[2]) || cost.Lookups != wantCost.Lookups+1 {
		t.Fatalf("LookupBucket answered with an unasked record reply: %v, %+v (honest %+v), %v", b, cost, wantCost, err)
	}
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
	if err := srvs[c.holders("bucket")[0].addr].Close(); err != nil {
		t.Fatal(err)
	}
	// A first read starts at the primary, a hedged duplicate at the other
	// holder: between them both orders of the failover walk are covered.
	for name, pctx := range map[string]context.Context{"primary first": ctx, "secondary first": dht.MarkHedgeAttempt(ctx)} {
		before := agg.Snapshot().Health.Failovers
		v, err := c.Probe(pctx, "bucket", ilht.ProbeHint(0.1, false))
		if h, ok := v.(*ilht.BucketHeader); err != nil || !ok || h.Label != b.Label {
			t.Errorf("%s: probe with an excluded key: %#v, %v, want the header", name, v, err)
		}
		v, err = c.Probe(pctx, "bucket", ilht.ProbeHint(0.71, false))
		if got, ok := v.(*ilht.Bucket); err != nil || !ok || len(got.Records) != len(b.Records) {
			t.Errorf("%s: probe with a covered key: %T, %v, want the whole bucket", name, v, err)
		}
		v, err = c.Probe(pctx, "bucket", ilht.ProbeHint(b.Records[9].Key, true))
		if r, ok := v.(*ilht.BucketRecord); err != nil || !ok || !r.Found || !bytes.Equal(r.Record.Value, b.Records[9].Value) {
			t.Errorf("%s: record probe with a present key: %#v, %v, want its record", name, v, err)
		}
		if failed := agg.Snapshot().Health.Failovers - before; (name == "primary first") != (failed == 3) {
			t.Errorf("%s: %d failovers", name, failed)
		}
	}
}

// TestRangeProbeShipsTheRun: over the wire a get hinted with a range is
// answered with the bucket's label and the records in the range, or with
// the label alone by a leaf outside it, built from the stored bytes under
// the store lock and counted as the one get it is.
func TestRangeProbeShipsTheRun(t *testing.T) {
	ctx := context.Background()
	c, servers := startCluster(t, 1)
	srv := servers[0]
	b := wideBucket()
	if err := c.Put(ctx, "bucket", b); err != nil {
		t.Fatal(err)
	}
	rangeGet := func(lo, hi float64) []byte {
		return binary.BigEndian.AppendUint64(appendKey(nil, "bucket"), ilht.RangeHint(lo, hi))
	}
	// Records 20 to 44. The bounds are rounded outward, by less than the
	// half-gap to record 45 but by enough to take a key that is a bound.
	slice := rangeGet(b.Records[20].Key, (b.Records[44].Key+b.Records[45].Key)/2)
	before := srv.Metrics()
	header := serve(srv, buildFrame(1, dht.OpGet, hintedGet("bucket", 0.1)), nil)
	outside := serve(srv, buildFrame(2, dht.OpGet, rangeGet(0.1, 0.2)), nil)
	run := serve(srv, buildFrame(3, dht.OpGet, slice), nil)
	all := serve(srv, buildFrame(4, dht.OpGet, rangeGet(0, 1)), nil)
	whole := serve(srv, buildFrame(5, dht.OpGet, appendKey(nil, "bucket")), nil)
	header, outside, run, all, whole = replyBody(header), replyBody(outside), replyBody(run), replyBody(all), replyBody(whole)
	if !bytes.Equal(outside, header) {
		t.Errorf("a range that misses the leaf was answered with %d bytes, a key that does with %d: want the header both times", len(outside), len(header))
	}
	// Past the label (the run's marker in the header's place): a one-byte
	// count, the values' one length byte, each key as its 47-bit offset in
	// the leaf's interval (2^-6 wide, where a float's bits step by 2^-53),
	// and the values.
	packed := func(n int) int { return len(header) + 1 + 1 + (n*47+7)/8 + n*len(b.Records[0].Value) }
	if want := packed(25); len(run) != want || !bytes.HasSuffix(run, b.Records[44].Value) {
		t.Errorf("run reply %d bytes, want %d ending in the last record's value", len(run), want)
	}
	// The whole bucket has the epoch prefix (tagEpoch, the epoch) and the
	// header's version, epoch and pending kind that the run's marker stands
	// in for, and its records as a list: each key in 8 bytes, each value
	// with its length.
	e := len(binary.AppendUvarint(nil, b.Epoch))
	if want := len(whole) - 2*e - 2 - record.ListSize(b.Records) + packed(len(b.Records)) - len(header); len(all) != want {
		t.Errorf("a range that takes every record was answered with %d bytes, want %d (a plain get: %d)", len(all), want, len(whole))
	}
	if after := srv.Metrics(); after.Lookup.Total-before.Lookup.Total != 5 || after.Lookup.FailedGets != before.Lookup.FailedGets {
		t.Errorf("five gets counted as %d lookups, %d failed gets",
			after.Lookup.Total-before.Lookup.Total, after.Lookup.FailedGets-before.Lookup.FailedGets)
	}
	out := make([]byte, 0, 2*len(whole))
	for name, payload := range map[string][]byte{"run": slice, "all": rangeGet(0, 1), "outside": rangeGet(0.1, 0.2)} {
		req := buildFrame(6, dht.OpGet, payload)
		if n := testing.AllocsPerRun(200, func() { serve(srv, req, &out) }); n != 0 {
			t.Errorf("serving a range-hinted get (%s): %v allocations, want 0", name, n)
		}
	}
	// What the client makes of the run is the index's business (the type
	// is its own); a leaf outside the range comes back as its header.
	v, err := c.Probe(ctx, "bucket", ilht.RangeHint(0.1, 0.2))
	if h, ok := v.(*ilht.BucketHeader); err != nil || !ok || h.Label != b.Label {
		t.Errorf("range probe of a leaf outside the range: %#v, %v, want the header", v, err)
	}
	if _, err := c.Probe(ctx, "absent", ilht.RangeHint(0, 1)); err != dht.ErrNotFound {
		t.Errorf("range probe of an absent key: %v", err)
	}
}
