package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lht"
	"lht/internal/workload"
)

const (
	defaultRecords = 1 << 17 // N: records loaded before every workload
	valueLen       = 64
	rangeSpan      = 0.005
	zipfS          = 1.1
	mixedPhases    = 16 // popularity rankings a mixed-cached client goes through
	warmupOps      = 1000
	readBackMax    = 1000
)

type opKind uint8

const (
	opGet opKind = iota
	opRange
	opInsert
	opDelete
)

var opNames = [...]string{opGet: "op.get", opRange: "op.range", opInsert: "op.insert", opDelete: "op.delete"}

// op is one scheduled facade call together with what the model says it
// must return.
type op struct {
	kind opKind
	key  float64 // range: the lower bound
	// version is, for a get, the version of the stored value (negative:
	// the key is absent); for an insert, the version written; for a
	// delete, non-negative exactly when the key is present.
	version int32
	value   []byte // insert: the value, generated with the schedule
}

// workloadSpec is one row of the workload table in README.md.
type workloadSpec struct {
	name     string
	opsAt20  int // schedule length of a 20-second run
	replicas int
	cached   bool // leaf cache and retry policy on: the production profile
	writes   bool
	gen      func(d *dataset, clients, perClient int, seed int64) [][]op
}

var workloads = []workloadSpec{
	{name: "get-probe", opsAt20: 45_000, replicas: 1, gen: genGets},
	{name: "range-scan", opsAt20: 9_000, replicas: 1, gen: genRanges},
	{name: "insert-grow", opsAt20: 36_000, replicas: 1, writes: true, gen: genInserts},
	{name: "mixed-cached", opsAt20: 67_500, replicas: 2, cached: true, writes: true, gen: genMixed},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

func (w workloadSpec) options() []lht.Option {
	if !w.cached {
		return nil // default config: theta_split 100, D 20, no cache, no retry
	}
	return []lht.Option{lht.WithLeafCache(0), lht.WithPolicy(lht.DefaultPolicy())}
}

// splitmix64 is the generator the harness derives values and sub-seeds
// with (Steele, Lea & Flood's SplitMix).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// subSeed derives an independent stream seed from the run seed.
func subSeed(seed int64, stream, client int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed))^uint64(stream)<<32^uint64(client)) >> 1)
}

// Seed streams.
const (
	streamKeys = iota + 1
	streamWarmup
	streamOps
	streamFresh
	streamKinds
)

// valueWord is the i-th 8-byte word of the value stored under key at the
// given version: values are a pure function of (key, version), so any
// record the index returns can be checked without keeping a copy.
func valueWord(key float64, version int32, i int) uint64 {
	return splitmix64(math.Float64bits(key) ^ uint64(version+1)*0xD1342543DE82EF95 + uint64(i))
}

func fillValue(dst []byte, key float64, version int32) {
	for i := 0; i < valueLen/8; i++ {
		binary.LittleEndian.PutUint64(dst[8*i:], valueWord(key, version, i))
	}
}

// valueOK reports whether got is the value of (key, version); it does not
// allocate, because it runs between the timed calls of a pass whose
// allocations are counted.
func valueOK(got []byte, key float64, version int32) bool {
	if len(got) != valueLen {
		return false
	}
	for i := 0; i < valueLen/8; i++ {
		if binary.LittleEndian.Uint64(got[8*i:]) != valueWord(key, version, i) {
			return false
		}
	}
	return true
}

// dataset is the loaded key set: Gaussian keys (paper section 9.1, mean
// 1/2, sigma 1/6), distinct, ascending.
type dataset struct {
	keys []float64
}

func newDataset(n int, seed int64) *dataset {
	g := workload.NewGenerator(workload.Gaussian, subSeed(seed, streamKeys, 0))
	seen := make(map[float64]struct{}, n)
	keys := make([]float64, 0, n)
	for len(keys) < n {
		k := g.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	return &dataset{keys: keys}
}

func (d *dataset) has(key float64) bool {
	i := sort.SearchFloat64s(d.keys, key)
	return i < len(d.keys) && d.keys[i] == key
}

// records returns the loaded records, all at version 0.
func (d *dataset) records() []lht.Record {
	backing := make([]byte, len(d.keys)*valueLen)
	recs := make([]lht.Record, len(d.keys))
	for i, k := range d.keys {
		v := backing[i*valueLen : (i+1)*valueLen : (i+1)*valueLen]
		fillValue(v, k, 0)
		recs[i] = lht.Record{Key: k, Value: v}
	}
	return recs
}

// warmup is the set-up's warm-up: gets of present keys by one client, the
// same shape whatever workload follows.
func (d *dataset) warmup(seed int64) []op {
	return genGets(d, 1, warmupOps, subSeed(seed, streamWarmup, 0))[0]
}

func genGets(d *dataset, clients, perClient int, seed int64) [][]op {
	out := make([][]op, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(subSeed(seed, streamOps, c)))
		out[c] = make([]op, perClient)
		for i := range out[c] {
			out[c][i] = op{kind: opGet, key: d.keys[rng.Intn(len(d.keys))]}
		}
	}
	return out
}

// genRanges stratifies the lower bounds: a client's i-th of n ranges starts
// in the i-th n-th of [0, 1-span), in seeded random order. Each bound is
// still uniform, but how many buckets the schedule crosses, which follows
// the Gaussian key density, no longer rides on where a few thousand
// independent draws happened to fall: the ten-seed spread of range-scan's
// lookups_per_op fell from 1.2 % to 0.6 %.
func genRanges(d *dataset, clients, perClient int, seed int64) [][]op {
	out := make([][]op, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(subSeed(seed, streamOps, c)))
		out[c] = make([]op, perClient)
		for i, stratum := range rng.Perm(perClient) {
			lo := (float64(stratum) + rng.Float64()) / float64(perClient) * (1 - rangeSpan)
			out[c][i] = op{kind: opRange, key: lo}
		}
	}
	return out
}

// genInserts draws fresh Gaussian keys. A hash of the key assigns it to a
// client, so two clients never insert the same key; a key dealt to a client
// whose share is full is dropped.
func genInserts(d *dataset, clients, perClient int, seed int64) [][]op {
	g := workload.NewGenerator(workload.Gaussian, subSeed(seed, streamFresh, 0))
	out := make([][]op, clients)
	backing := make([]byte, clients*perClient*valueLen)
	seen := make(map[float64]struct{}, clients*perClient)
	for filled := 0; filled < clients*perClient; {
		k := g.Key()
		if _, dup := seen[k]; dup || d.has(k) {
			continue
		}
		seen[k] = struct{}{}
		c := int(splitmix64(math.Float64bits(k)) % uint64(clients))
		if len(out[c]) == perClient {
			continue
		}
		v := backing[filled*valueLen : (filled+1)*valueLen : (filled+1)*valueLen]
		fillValue(v, k, 0)
		out[c] = append(out[c], op{kind: opInsert, key: k, value: v})
		filled++
	}
	return out
}

// genMixed is the production mix: 75 % get, 20 % insert, 5 % delete, keys
// by Zipf popularity over the client's own slice of the loaded keys. The
// slices interleave in key order, so clients contend for the same buckets
// but never for the same key, and each client's expectations follow from
// its own op stream alone. Popularity drifts: a client re-draws which keys
// are hot mixedPhases times over its schedule. The hottest key takes 14 %
// of a phase's ops, and whether it sits in a bucket of 50 records or of 100
// decides the bytes of all of them: with one ranking per run the ten-seed
// spread of wire_bytes_per_op was 2.6 % and of alloc_bytes_per_op 2.0 %,
// with sixteen 1.2 % and 0.9 %.
func genMixed(d *dataset, clients, perClient int, seed int64) [][]op {
	out := make([][]op, clients)
	phaseLen := (perClient + mixedPhases - 1) / mixedPhases
	for c := range out {
		var own []float64
		for i := c; i < len(d.keys); i += clients {
			own = append(own, d.keys[i])
		}
		var arr *workload.Arrivals
		kinds := rand.New(rand.NewSource(subSeed(seed, streamKinds, c)))
		type state struct {
			version int32
			absent  bool
		}
		model := map[float64]state{}
		out[c] = make([]op, perClient)
		for i := range out[c] {
			if i%phaseLen == 0 {
				var err error
				arr, err = workload.NewArrivals(own, zipfS, subSeed(subSeed(seed, streamOps, c), streamOps, i/phaseLen))
				if err != nil {
					panic(err) // own is non-empty and zipfS > 1
				}
			}
			k := arr.Next()
			st := model[k]
			o := op{key: k, version: st.version}
			if st.absent {
				o.version = -1
			}
			switch r := kinds.Float64(); {
			case r < 0.75:
				o.kind = opGet
			case r < 0.95:
				o.kind = opInsert
				st.version++
				st.absent = false
				o.version = st.version
				o.value = make([]byte, valueLen)
				fillValue(o.value, k, o.version)
			default:
				o.kind = opDelete
				st.absent = true
			}
			model[k] = st
			out[c][i] = o
		}
	}
	return out
}

// outcome is the model's state after a schedule: how many records the
// index must hold and, per written key, the version it must return
// (negative: absent).
type outcome struct {
	count   int
	written []op // kind opGet, ready to be checked like a scheduled get
}

func modelOutcome(d *dataset, sched [][]op) outcome {
	final := map[float64]int32{}
	var order []float64 // first-write order, so the read-back sample is the same on every run
	for _, ops := range sched {
		for _, o := range ops {
			if o.kind != opInsert && o.kind != opDelete {
				continue
			}
			if _, ok := final[o.key]; !ok {
				order = append(order, o.key)
			}
			if o.kind == opInsert {
				final[o.key] = o.version
			} else {
				final[o.key] = -1
			}
		}
	}
	out := outcome{count: len(d.keys)}
	for _, k := range order {
		v := final[k]
		switch loaded := d.has(k); {
		case loaded && v < 0:
			out.count--
		case !loaded && v >= 0:
			out.count++
		}
		out.written = append(out.written, op{kind: opGet, key: k, version: v})
	}
	return out
}
