package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"testing"

	"lht/internal/dht"
)

// BenchmarkFrameEncode measures pure codec cost: building a put frame
// with a raw []byte value. Steady state allocates nothing — the frame
// buffer is pooled.
func BenchmarkFrameEncode(b *testing.B) {
	val := bytes.Repeat([]byte("x"), 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bufp := newFrame(dht.OpPut)
		frame := appendLenString(*bufp, "bench/key/000042")
		frame = append(frame, tagRaw)
		frame = append(frame, val...)
		*bufp = frame
		finishFrame(frame, uint64(i))
		putBuf(bufp)
	}
}

// BenchmarkFrameDecode measures pure decode cost: framing + cursor walk
// of a put request. The only allocation is the first iteration's buffer.
func BenchmarkFrameDecode(b *testing.B) {
	frame := appendLenString(*newFrame(dht.OpPut), "bench/key/000042")
	frame = append(frame, tagRaw)
	frame = append(frame, bytes.Repeat([]byte("x"), 256)...)
	finishFrame(frame, 7)
	raw := frame
	r := bytes.NewReader(raw)
	br := bufio.NewReader(r)
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		br.Reset(r)
		body, err := readFrameBody(br, buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = body
		c := cursor{b: body[frameHeaderLen:]}
		if _, err := c.lenBytes(); err != nil {
			b.Fatal(err)
		}
		if v := c.rest(); len(v) != 257 {
			b.Fatalf("value = %d bytes", len(v))
		}
	}
}

// benchCluster is one server + one client for end-to-end benchmarks.
func benchCluster(b *testing.B) *Client {
	b.Helper()
	addrs := startBenchServers(b, 1)
	c, err := DialContext(context.Background(), addrs)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	return c
}

func startBenchServers(b *testing.B, n int) []string {
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

// BenchmarkWireGet / BenchmarkWirePut time the full client round trip
// with a raw []byte value: run with -benchmem to see the allocs/op that
// ablation A8 gates on.
func BenchmarkWireGet(b *testing.B) {
	c := benchCluster(b)
	ctx := context.Background()
	if err := c.Put(ctx, "k", bytes.Repeat([]byte("x"), 256)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(ctx, "k"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireProbeTrimmed / BenchmarkWireProbeWhole are the two replies
// a probe of a 75-record bucket can get, full client round trip: the
// header alone (the hinted key lies outside the leaf) and the whole
// bucket (it lies inside). wire-B/op is what the server sent back.
func BenchmarkWireProbeTrimmed(b *testing.B) { benchWireProbe(b, 0.1) }

func BenchmarkWireProbeWhole(b *testing.B) { benchWireProbe(b, 0.71) }

func benchWireProbe(b *testing.B, delta float64) {
	c := benchCluster(b)
	ctx := context.Background()
	if err := c.Put(ctx, "k", wideBucket()); err != nil {
		b.Fatal(err)
	}
	hint := math.Float64bits(delta)
	stored, err := appendValue(nil, wideBucket())
	if err != nil {
		b.Fatal(err)
	}
	reply := 4 + frameHeaderLen + 1 + probeLen(stored, hint) // length, id+op, status, value
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Probe(ctx, "k", hint); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reply), "wire-B/op")
}

func BenchmarkWirePut(b *testing.B) {
	c := benchCluster(b)
	ctx := context.Background()
	val := bytes.Repeat([]byte("x"), 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(ctx, "k", val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWirePipelined measures the multiplexer's throughput win: many
// concurrent getters sharing one connection pool.
func BenchmarkWirePipelined(b *testing.B) {
	c := benchCluster(b)
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
	c := benchCluster(b)
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
