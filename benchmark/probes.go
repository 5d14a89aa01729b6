package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lht"
	"lht/internal/bitlabel"
	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/metrics"
)

const (
	probeCalls      = 1000 // network calls per tcpnet probe
	codecRuns       = 2000
	stackRuns       = 200_000
	refBucketRecs   = 75
	rawValueLen     = 6 << 10
	probeKeyPrefix  = "bench-probe/" // no bucket key starts like this
	getBatchProbeSz = 16
)

// timeCalls runs f n times and returns the median duration in nanoseconds
// and the heap allocations per call of the whole process (the client mux's
// reader goroutines included: they are part of what a call costs).
func timeCalls(n int, f func() error) (medianNs int64, allocs float64, err error) {
	durs := make([]int64, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range durs {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		durs[i] = time.Since(t0).Nanoseconds()
	}
	runtime.ReadMemStats(&m1)
	return median(durs), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// referenceBucket is the bucket the codec probes use: 75 records of 64
// bytes, three quarters of theta_split, what a leaf holds on average.
func referenceBucket() *ilht.Bucket {
	b := &ilht.Bucket{Label: bitlabel.MustParse("#0101101"), Epoch: 7} // the leaf of [0.703125, 0.71875)
	for i := 0; i < refBucketRecs; i++ {
		k := 0.703125 + float64(i)/refBucketRecs/64
		v := make([]byte, valueLen)
		fillValue(v, k, 0)
		b.Records = append(b.Records, lht.Record{Key: k, Value: v})
	}
	return b
}

// probeCodec times the bucket codec on its own.
func probeCodec(m map[string]float64) (encodedLen int, err error) {
	b := referenceBucket()
	var enc []byte
	ns, allocs, err := timeCalls(codecRuns, func() (err error) {
		enc, err = ilht.EncodeBucket(b)
		return err
	})
	if err != nil {
		return 0, err
	}
	m["codec.encode_us"], m["codec.encode_allocs"] = float64(ns)/1e3, allocs
	ns, allocs, err = timeCalls(codecRuns, func() error {
		_, err := ilht.DecodeBucket(enc)
		return err
	})
	if err != nil {
		return 0, err
	}
	m["codec.decode_us"], m["codec.decode_allocs"] = float64(ns)/1e3, allocs
	m["codec.bytes_per_record"] = float64(len(enc)) / refBucketRecs
	return len(enc), nil
}

// probeStack prices the decorator stack on its own: a Get through the
// retry policy and the instrumentation over the in-process substrate,
// minus the same Get on the bare substrate.
func probeStack(ctx context.Context, m map[string]float64) error {
	local := dht.NewLocal()
	if err := local.Put(ctx, "k", []byte("v")); err != nil {
		return err
	}
	stack := dht.WithPolicy(dht.NewInstrumented(local, &metrics.Counters{}), dht.DefaultPolicy())
	// A call takes tens of nanoseconds, less than reading the clock does,
	// so the loop is timed as a whole.
	perGet := func(d dht.DHT) (ns, allocs float64, err error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < stackRuns; i++ {
			if _, err := d.Get(ctx, "k"); err != nil {
				return 0, 0, err
			}
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		return float64(el.Nanoseconds()) / stackRuns, float64(m1.Mallocs-m0.Mallocs) / stackRuns, nil
	}
	bareNs, bareAllocs, err := perGet(local)
	if err != nil {
		return err
	}
	stackNs, stackAllocs, err := perGet(stack)
	if err != nil {
		return err
	}
	m["dht.stack_ns_per_get"], m["dht.stack_allocs_per_get"] = stackNs-bareNs, stackAllocs-bareAllocs
	return nil
}

// probeTcpnet calls the tcpnet client's public methods directly, one
// caller, against the idle cluster. Values are raw bytes, which tcpnet
// ships untouched, so no value codec runs: what is left is the client
// mux, the frame codec, the sockets and the server's store. The last
// probe fetches the reference bucket as a bucket and as raw bytes of the
// same encoded length; the difference is what a bucket costs over bytes.
func (b *bench) probeTcpnet(ctx context.Context, encodedLen int, m map[string]float64) error {
	c := b.client
	raw := make([]byte, rawValueLen)
	fillValue(raw, 0.5, 0)
	key := probeKeyPrefix + "raw"
	if err := c.Put(ctx, key, raw); err != nil {
		return fmt.Errorf("probe put: %w", err)
	}

	// The get probe is also where calls are priced in system calls and
	// socket bytes, from /proc as for the end-to-end metrics.
	before, err := b.takeSample(ctx, true)
	if err != nil {
		return err
	}
	ns, allocs, err := timeCalls(probeCalls, func() error { _, err := c.Get(ctx, key); return err })
	if err != nil {
		return fmt.Errorf("probe get: %w", err)
	}
	after, err := b.takeSample(ctx, false)
	if err != nil {
		return err
	}
	use := before.until(after)
	m["tcpnet.get_raw_us_p50"], m["tcpnet.get_raw_allocs"] = float64(ns)/1e3, allocs
	m["tcpnet.io_syscalls_per_call"] = float64(use.clientSyscalls+use.nodeSyscalls) / probeCalls
	m["tcpnet.wire_bytes_per_call"] = float64(use.nodeBytes) / probeCalls

	ns, allocs, err = timeCalls(probeCalls, func() error { return c.Put(ctx, key, raw) })
	if err != nil {
		return fmt.Errorf("probe put: %w", err)
	}
	m["tcpnet.put_raw_us_p50"], m["tcpnet.put_raw_allocs"] = float64(ns)/1e3, allocs

	// Raw bytes carry no epoch, which the server reads as epoch 0.
	ns, _, err = timeCalls(probeCalls, func() error { return c.PutIf(ctx, key, raw, 0) })
	if err != nil {
		return fmt.Errorf("probe putif: %w", err)
	}
	m["tcpnet.putif_raw_us_p50"] = float64(ns) / 1e3

	keys := make([]string, getBatchProbeSz)
	for i := range keys {
		keys[i] = fmt.Sprintf("%sbatch-%d", probeKeyPrefix, i)
		if err := c.Put(ctx, keys[i], raw); err != nil {
			return fmt.Errorf("probe put: %w", err)
		}
	}
	ns, _, err = timeCalls(probeCalls, func() error {
		_, errs := c.GetBatch(ctx, keys)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("probe getbatch: %w", err)
	}
	m["tcpnet.getbatch16_raw_us_p50"] = float64(ns) / 1e3

	bucketKey, bytesKey := probeKeyPrefix+"bucket", probeKeyPrefix+"bucket-bytes"
	if err := c.Put(ctx, bucketKey, referenceBucket()); err != nil {
		return fmt.Errorf("probe put bucket: %w", err)
	}
	if err := c.Put(ctx, bytesKey, raw[:encodedLen]); err != nil {
		return fmt.Errorf("probe put: %w", err)
	}
	var got dht.Value
	bucketNs, bucketAllocs, err := timeCalls(probeCalls, func() (err error) { got, err = c.Get(ctx, bucketKey); return err })
	if err != nil {
		return fmt.Errorf("probe get bucket: %w", err)
	}
	if bk, ok := got.(*ilht.Bucket); !ok || len(bk.Records) != refBucketRecs {
		return fmt.Errorf("probe get bucket: got %T, want the reference bucket back", got)
	}
	bytesNs, bytesAllocs, err := timeCalls(probeCalls, func() error { _, err := c.Get(ctx, bytesKey); return err })
	if err != nil {
		return fmt.Errorf("probe get: %w", err)
	}
	m["codec.get_overhead_us"] = float64(bucketNs-bytesNs) / 1e3
	m["codec.get_overhead_allocs"] = bucketAllocs - bytesAllocs
	return nil
}

// nodePeakRSS returns the largest peak resident set among the nodes.
func (b *bench) nodePeakRSS() (float64, error) {
	var peak float64
	for _, n := range b.nodes {
		mb, err := readPeakRSS(n.pid())
		if err != nil {
			return 0, err
		}
		peak = max(peak, mb)
	}
	return peak, nil
}
