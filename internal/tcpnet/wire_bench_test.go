package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/record"
)

// BenchmarkFrameEncode measures pure codec cost: building a put frame
// with a raw []byte value. Steady state allocates nothing — the frame
// buffer is pooled.
func BenchmarkFrameEncode(b *testing.B) {
	val := bytes.Repeat([]byte("x"), 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bufp := newFrame(uint64(i), dht.OpPut)
		frame := appendKey(*bufp, "bench/key/000042")
		frame = append(frame, tagRaw)
		frame = append(frame, val...)
		*bufp = frame
		finishFrame(frame)
		putBuf(bufp)
	}
}

// BenchmarkFrameDecode measures pure decode cost: framing + cursor walk
// of a put request. Steady state allocates nothing — the body's buffer is
// pooled.
func BenchmarkFrameDecode(b *testing.B) {
	frame := appendKey(*newFrame(7, dht.OpPut), "bench/key/000042")
	frame = append(frame, tagRaw)
	frame = append(frame, bytes.Repeat([]byte("x"), 256)...)
	raw := frame[finishFrame(frame):]
	r := bytes.NewReader(raw)
	br := bufio.NewReader(r)
	var keys keyScratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		br.Reset(r)
		f := frameReader{br: br}
		_, body, err := f.next()
		if err != nil {
			b.Fatal(err)
		}
		c := cursor{b: (*body)[1:]}
		if _, err := c.key(&keys); err != nil {
			b.Fatal(err)
		}
		if v := c.rest(); len(v) != 257 {
			b.Fatalf("value = %d bytes", len(v))
		}
		putBuf(body)
	}
}

// benchCluster is one server + one client for end-to-end benchmarks, and
// the count of the bytes the client's connections carry, both ways.
func benchCluster(b *testing.B) (*Client, *atomic.Int64) {
	b.Helper()
	dialer := &byteDialer{addrs: map[string]string{"bench-node": startBenchServers(b, 1)[0]}}
	c, err := Dial(context.Background(), ClusterConfig{Seeds: []string{"bench-node"}, Dialer: dialer})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	return c, &dialer.n
}

// reportWire reports n bytes crossed in b.N operations as wire-B/op.
func reportWire(b *testing.B, n int64) {
	b.ReportMetric(float64(n)/float64(b.N), "wire-B/op")
}

func startBenchServers(b testing.TB, n int) []string {
	b.Helper()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		srv := NewServer()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		b.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs
}

// ioSyscalls is the process's read plus write syscall count so far, from
// /proc/self/io; ok is false where there is no such file (not Linux).
func ioSyscalls() (n int64, ok bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, _ := strings.Cut(line, ": ")
		if name == "syscr" || name == "syscw" {
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return 0, false
			}
			n += v
		}
	}
	return n, true
}

// leafKey is the key the round-trip benchmarks store under, a leaf's DHT
// name as the index writes it: its wire-B/op includes what a name costs
// on the wire, and Go never allocates a one-byte string, so a one-byte
// key would hide what a node allocates for a written key.
var leafKey = wideBucket().Label.Name().Key()

// BenchmarkWireGet / BenchmarkWirePut time the full client round trip
// with a raw []byte value: run with -benchmem to see the allocs/op that
// ablation A8 gates on. BenchmarkWireGet also reports wire-B/op, request
// plus reply bytes as they crossed the socket, and syscalls/op, the
// reads and writes of both ends of the connection (client and server
// share the process): on an idle connection each side pays one write,
// one read and the runtime's speculative read that returns EAGAIN before
// the goroutine parks in the poller, so ~6 is the floor of a lone round
// trip, not a sign that writes go unbatched.
func BenchmarkWireGet(b *testing.B) { benchWireGet(b) }

// BenchmarkWireGetLocked is BenchmarkWireGet from a goroutine locked to
// its OS thread, as the ledger's main goroutine is: there every handoff
// of a frame or a reply to another goroutine would be a thread wake, so
// a round trip done on its caller shows here most.
func BenchmarkWireGetLocked(b *testing.B) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	benchWireGet(b)
}

func benchWireGet(b *testing.B) {
	c, wire := benchCluster(b)
	ctx := context.Background()
	if err := c.Put(ctx, leafKey, bytes.Repeat([]byte("x"), 256)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	crossed := wire.Load()
	before, counted := ioSyscalls()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(ctx, leafKey); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportWire(b, wire.Load()-crossed)
	if after, _ := ioSyscalls(); counted {
		b.ReportMetric(float64(after-before)/float64(b.N), "syscalls/op")
	}
}

// BenchmarkWireProbe{Trimmed,Whole,Selected} are the three replies a
// probe of a 75-record bucket can get, full client round trip: the
// header alone (the hinted key lies outside the leaf), the whole bucket
// (it lies inside) and header plus one record (it lies inside and the
// prober wants the record alone). wire-B/op is request plus reply.
func BenchmarkWireProbeTrimmed(b *testing.B) { benchWireProbe(b, ilht.ProbeHint(0.1, false)) }

func BenchmarkWireProbeWhole(b *testing.B) { benchWireProbe(b, ilht.ProbeHint(0.71, false)) }

func BenchmarkWireProbeSelected(b *testing.B) {
	benchWireProbe(b, ilht.ProbeHint(wideBucket().Records[37].Key, true))
}

func benchWireProbe(b *testing.B, hint uint64) {
	c, wire := benchCluster(b)
	ctx := context.Background()
	if err := c.Put(ctx, leafKey, wideBucket()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	crossed := wire.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Probe(ctx, leafKey, hint); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportWire(b, wire.Load()-crossed)
}

// BenchmarkWirePutIf / BenchmarkWirePatch are the two ways to overwrite
// one 64-byte record of a 75-record bucket, full client round trip: the
// whole bucket under putif, the one record under patchif. wire-B/op is
// request plus reply.
func BenchmarkWirePutIf(b *testing.B) {
	c, wire := benchCluster(b)
	ctx := context.Background()
	bucket := wideBucket()
	if err := c.Put(ctx, leafKey, bucket); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	crossed := wire.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bucket.Epoch++
		if err := c.PutIf(ctx, leafKey, bucket, bucket.Epoch-1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportWire(b, wire.Load()-crossed)
}

func BenchmarkWirePatch(b *testing.B) {
	c, wire := benchCluster(b)
	ctx := context.Background()
	bucket := wideBucket()
	if err := c.Put(ctx, leafKey, bucket); err != nil {
		b.Fatal(err)
	}
	patch := ilht.UpsertPatch(bucket.Records[37], 0, 20)
	hint := ilht.ProbeHint(bucket.Records[37].Key, false)
	b.ReportAllocs()
	crossed := wire.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Patch(ctx, leafKey, hint, patch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportWire(b, wire.Load()-crossed)
}

// BenchmarkWirePatchReplicated is BenchmarkWirePatch at two replicas:
// the key's serializer applies the patch, and the client then sends it in
// newer mode to the other holder, which applies it too. That propagation
// has one target, so it runs on the caller's goroutine and the client
// allocates nothing for it: allocs/op is twice BenchmarkWirePatch's, each
// holder's own (none: each writes under the key string it holds), and
// ns/op is two round trips back to back.
func BenchmarkWirePatchReplicated(b *testing.B) {
	addrs := startBenchServers(b, 2)
	ctx := context.Background()
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	bucket := wideBucket()
	if err := c.Put(ctx, leafKey, bucket); err != nil {
		b.Fatal(err)
	}
	patch := ilht.UpsertPatch(bucket.Records[37], 0, 20)
	hint := ilht.ProbeHint(bucket.Records[37].Key, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := c.Patch(ctx, leafKey, hint, patch)
		if _, ok := v.(ilht.PatchAck); err != nil || !ok {
			b.Fatalf("Patch = %#v, %v, want an acknowledgement", v, err)
		}
	}
}

// BenchmarkWirePatchCrossing is the upsert that takes a 99-record leaf
// to its split threshold, full client round trip: the node answers with
// the split reply, the new header with the local half's record count and
// the remote half's records, which the writer's split pushes out.
// BenchmarkWirePatchCrossingWhole is the same upsert at the depth bound,
// where the leaf cannot split and the node answers with the new bucket
// whole. wire-B/op is request plus reply.
func BenchmarkWirePatchCrossing(b *testing.B) { benchWirePatchCrossing(b, 20) }

func BenchmarkWirePatchCrossingWhole(b *testing.B) { benchWirePatchCrossing(b, 7) }

func benchWirePatchCrossing(b *testing.B, depth int) {
	c, wire := benchCluster(b)
	ctx := context.Background()
	leaf := &ilht.Bucket{Label: bitlabel.MustParse("#0101101"), Epoch: 7} // [0.703125, 0.71875)
	for i := 0; i < 99; i++ {
		leaf.Records = append(leaf.Records, record.Record{Key: 0.703125 + float64(i)/100/64, Value: bytes.Repeat([]byte{byte(i)}, 64)})
	}
	rec := record.Record{Key: 0.703125 + 0.99/64, Value: bytes.Repeat([]byte{99}, 64)}
	patch, hint := ilht.UpsertPatch(rec, 100, depth), ilht.ProbeHint(rec.Key, false)
	var crossed int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := c.Put(ctx, leafKey, leaf); err != nil {
			b.Fatal(err)
		}
		from := wire.Load()
		b.StartTimer()
		v, err := c.Patch(ctx, leafKey, hint, patch)
		if _, split := v.(*ilht.Cut); err != nil || split != (depth > leaf.Label.Len()) {
			b.Fatalf("crossing Patch = %T, %v", v, err)
		}
		crossed += wire.Load() - from
	}
	b.StopTimer()
	reportWire(b, crossed)
}

// BenchmarkWireWriteIfCommit / BenchmarkWirePatchCommit are the two ways
// a split of that bucket commits on the peer that keeps it, full client
// round trip: the local half whole under writeif, or the one-byte commit
// under patchif in place, acknowledged with the half's record count.
// wire-B/op is request plus reply.
func BenchmarkWireWriteIfCommit(b *testing.B) { benchWireCommit(b, false) }

func BenchmarkWirePatchCommit(b *testing.B) { benchWireCommit(b, true) }

func benchWireCommit(b *testing.B, patched bool) {
	c, wire := benchCluster(b)
	ctx := context.Background()
	marked := wideBucket()
	marked.Pending = ilht.Pending{Kind: ilht.PendingSplit}
	local, commit := localHalf(marked), ilht.CommitSplitPatch()
	var crossed int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := c.Put(ctx, leafKey, marked); err != nil {
			b.Fatal(err)
		}
		from := wire.Load()
		b.StartTimer()
		var err error
		if patched {
			_, err = c.WritePatchIf(ctx, leafKey, commit, marked.Epoch)
		} else {
			err = c.WriteIf(ctx, leafKey, local, marked.Epoch)
		}
		if err != nil {
			b.Fatal(err)
		}
		crossed += wire.Load() - from
	}
	b.StopTimer()
	reportWire(b, crossed)
}

func BenchmarkWirePut(b *testing.B) {
	c, _ := benchCluster(b)
	ctx := context.Background()
	val := bytes.Repeat([]byte("x"), 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(ctx, leafKey, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWirePipelined measures the multiplexer's throughput win: many
// concurrent getters sharing one connection pool.
func BenchmarkWirePipelined(b *testing.B) {
	c, _ := benchCluster(b)
	ctx := context.Background()
	if err := c.Put(ctx, "k", bytes.Repeat([]byte("x"), 256)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Get(ctx, "k"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireGetBatch times a 64-key batch.
func BenchmarkWireGetBatch(b *testing.B) {
	const n = 64
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("bk-%03d", i)
	}
	c, _ := benchCluster(b)
	ctx := context.Background()
	kvs := make([]dht.KV, n)
	for i, k := range keys {
		kvs[i] = dht.KV{Key: k, Val: []byte("v-" + k)}
	}
	for _, err := range c.PutBatch(ctx, kvs) {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := c.GetBatch(ctx, keys)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// byteDialer dials cluster members by fixed names, so that every run
// places every key alike, and counts the bytes its connections carry:
// both ways, and read alone.
type byteDialer struct {
	addrs map[string]string
	n     atomic.Int64
	read  atomic.Int64
}

func (d *byteDialer) DialContext(ctx context.Context, network, name string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, d.addrs[name])
	if err != nil {
		return nil, err
	}
	return &byteConn{Conn: conn, n: &d.n, read: &d.read}, nil
}

type byteConn struct {
	net.Conn
	n, read *atomic.Int64
}

func (c *byteConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	c.read.Add(int64(n))
	return n, err
}

func (c *byteConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// Bounds of the range the range benchmark and its allocation ceiling
// query: both edge leaves are cut, the ten between are swept whole.
const wireRangeLo, wireRangeHi = 0.14, 0.86

// wireRangeIndex stores a complete 16-leaf tree of 75 x 64 B buckets on
// three fresh servers and returns an index over a client of theirs, with
// the counter of that client's wire bytes. [wireRangeLo, wireRangeHi) has
// the shape of a range-scan op of the end-to-end ledger: an LCA probe,
// two entered children, and 12 leaves, most of them from a sweep's
// multi-get.
func wireRangeIndex(tb testing.TB) (*ilht.Index, *atomic.Int64) {
	tb.Helper()
	names := []string{"range-node-0", "range-node-1", "range-node-2"}
	dialer := &byteDialer{addrs: make(map[string]string)}
	for i, addr := range startBenchServers(tb, len(names)) {
		dialer.addrs[names[i]] = addr
	}
	ctx := context.Background()
	c, err := Dial(ctx, ClusterConfig{Seeds: names, PoolSize: 1, Dialer: dialer})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	for leaf := 0; leaf < 16; leaf++ {
		b := &ilht.Bucket{Label: bitlabel.MustParse(fmt.Sprintf("#0%04b", leaf)), Epoch: 1}
		for i := 0; i < 75; i++ {
			b.Records = append(b.Records, record.Record{Key: (float64(leaf) + float64(i)/75) / 16, Value: bytes.Repeat([]byte{byte(i)}, 64)})
		}
		if err := c.Put(ctx, b.Label.Name().Key(), b); err != nil {
			tb.Fatal(err)
		}
	}
	ix, err := ilht.New(c, ilht.Config{SplitThreshold: 100, MergeThreshold: 50, Depth: 20})
	if err != nil {
		tb.Fatal(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		tb.Fatal(err)
	}
	return ix, &dialer.n
}

// BenchmarkWireRange is a range query over 12 of 16 leaves on three
// loopback servers, through the index: run with -benchmem for what a
// range costs the client in allocations (servers share the process; they
// add a handful a request). wire-B/op is request plus reply bytes, so
// B/op over wire-B/op is the ledger's alloc-bytes-per-wire-byte ratio;
// syscalls/op counts both ends' reads and writes, as BenchmarkWireGet's
// does, so it falls with the frames a query sends.
func BenchmarkWireRange(b *testing.B) {
	ix, wire := wireRangeIndex(b)
	b.ReportAllocs()
	before := wire.Load()
	calls, counted := ioSyscalls()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, _, err := ix.Range(wireRangeLo, wireRangeHi)
		if err != nil || len(recs) != 864 {
			b.Fatalf("Range = %d records, %v", len(recs), err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(wire.Load()-before)/float64(b.N), "wire-B/op")
	if after, _ := ioSyscalls(); counted {
		b.ReportMetric(float64(after-calls)/float64(b.N), "syscalls/op")
	}
}
