package tcpnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"lht/internal/dht"
	ilht "lht/internal/lht"
)

// keyBits is a bit string to cut label names of every length from.
const keyBits = "0110100111010001011101100101001110100010111011001010011101000101"

// rawKeys are keys with no packed form: not '#' and bits, or more than
// maxPackedBits of them.
var rawKeys = []string{"", "k1", "#2", "#0101x", "#" + keyBits + "0", "0101"}

// TestKeyFormBytes pins the key field on the wire. A name of n bits
// crosses packed in every request that carries a key — its x varint, one
// byte up to 63 bits, and ceil(n/8) bytes of bits — and a node stores and
// answers it under the '#' string it left as; any other key crosses raw
// and is stored as it is. The node's keys after the puts are exactly the
// strings put.
func TestKeyFormBytes(t *testing.T) {
	ctx := context.Background()
	addrs, srvs := startServerMap(t, 1)
	srv := srvs[addrs[0]]
	dialer := &byteDialer{addrs: map[string]string{"node": addrs[0]}}
	c, err := Dial(ctx, ClusterConfig{Seeds: []string{"node"}, PoolSize: 1, Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// sent is what one call's requests put on the wire, at request id 1.
	sent := func(call func() error) int64 {
		t.Helper()
		setNextID(t, c, 1)
		n, read := dialer.n.Load(), dialer.read.Load()
		if err := call(); err != nil && !errors.Is(err, dht.ErrNotFound) && !errors.Is(err, dht.ErrPatchRefused) {
			t.Fatal(err)
		}
		return dialer.n.Load() - n - (dialer.read.Load() - read)
	}
	hint := ilht.ProbeHint(0.5, true)
	ops := map[string]func(key string) error{
		"get": func(k string) error { _, err := c.Get(ctx, k); return err },
		"probe": func(k string) error {
			_, err := c.Probe(ctx, k, hint)
			return err
		},
		"patchif": func(k string) error {
			_, err := c.Patch(ctx, k, hint, ilht.DeletePatch(0.5, 0))
			return err
		},
		"getbatch": func(k string) error { _, errs := c.GetBatch(ctx, []string{k}); return errs[0] },
	}
	var want []string
	for _, n := range []int{0, 1, 8, 9, 13, 20, 63, 64} {
		key := "#" + keyBits[:n]
		if err := c.Put(ctx, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		want = append(want, key)
		field := len(appendUv(nil, uint64(n)<<1|1)) + (n+7)/8
		for name, op := range ops {
			// The empty key's field is its x varint, one byte.
			if got, base := sent(func() error { return op(key) }), sent(func() error { return op("") }); got-base != int64(field-1) {
				t.Errorf("%s of a %d-bit name: the key took %d bytes, want %d", name, n, got-base+1, field)
			}
		}
		if v, err := c.Get(ctx, key); err != nil || string(v.([]byte)) != key {
			t.Errorf("Get(%q) = %v, %v", key, v, err)
		}
	}
	for _, key := range rawKeys {
		if err := c.Put(ctx, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		want = append(want, key)
		if v, err := c.Get(ctx, key); err != nil || string(v.([]byte)) != key {
			t.Errorf("Get(%q) = %v, %v", key, v, err)
		}
		if vs, errs := c.GetBatch(ctx, []string{key}); errs[0] != nil || string(vs[0].([]byte)) != key {
			t.Errorf("GetBatch(%q) = %v, %v", key, vs[0], errs[0])
		}
	}
	srv.mu.Lock()
	var stored []string
	for k := range srv.store {
		stored = append(stored, k)
	}
	srv.mu.Unlock()
	sort.Strings(stored)
	sort.Strings(want)
	if strings.Join(stored, "|") != strings.Join(want, "|") {
		t.Errorf("the node stores %q, want %q", stored, want)
	}
}

// TestProbeReplyBytes pins a probe's reply on the wire, form by form, at
// request id 1: the frame's length byte and id byte, the status, tagWire
// and the kind, then what the bucket's projector ships — a marker and the
// leaf's label (two bytes at depth 7), and past them for a found record
// its value alone, to the reply's end, for a run its count, its values'
// one length, its keys packed and its values.
// None carries the stored value's epoch prefix, a hinted getbatch's slot
// included; a plain get answers the stored bytes verbatim, prefix and
// all, for re-replication compares the epochs of plain gets.
func TestProbeReplyBytes(t *testing.T) {
	ctx := context.Background()
	addrs, srvs := startServerMap(t, 1)
	dialer := &byteDialer{addrs: map[string]string{"node": addrs[0]}}
	c, err := Dial(ctx, ClusterConfig{Seeds: []string{"node"}, PoolSize: 1, Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := wideBucket()
	key := b.Label.Name().Key()
	if err := c.Put(ctx, key, b); err != nil {
		t.Fatal(err)
	}
	stored := storedValue(srvs[addrs[0]], key)
	if stored[0] != tagEpoch {
		t.Fatalf("the bucket is stored as %x…, want its epoch prefix first", stored[:4])
	}

	// received is what one call's reply put on the wire.
	received := func(call func() (dht.Value, error)) (dht.Value, int64) {
		t.Helper()
		setNextID(t, c, 1)
		read := dialer.read.Load()
		v, err := call()
		if err != nil {
			t.Fatal(err)
		}
		return v, dialer.read.Load() - read
	}
	probe := func(hint uint64) func() (dht.Value, error) {
		return func() (dht.Value, error) { return c.Probe(ctx, key, hint) }
	}
	const (
		head  = 5 // length, id, status, tagWire, kind
		label = 2 // #0101101: a bit count byte and one byte of bits
		value = 64
	)
	mid := func(i int) float64 { return (b.Records[i].Key + b.Records[i+1].Key) / 2 }
	for _, tc := range []struct {
		name string
		call func() (dht.Value, error)
		want int64
	}{
		{"header", probe(ilht.ProbeHint(0.1, false)), head + 1 + label},
		{"header, record-only", probe(ilht.ProbeHint(0.1, true)), head + 1 + label},
		{"header, range", probe(ilht.RangeHint(0.1, 0.2)), head + 1 + label},
		{"record found", probe(ilht.ProbeHint(b.Records[21].Key, true)), head + 1 + label + value},
		{"record absent", probe(ilht.ProbeHint(0.7101, true)), head + 1 + label},
		{"run of one record", probe(ilht.RangeHint(mid(20), mid(21))), head + 1 + label + 1 + 1 + 6 + value}, // the key's 47-bit offset in 6 bytes
		{"run of none", probe(ilht.RangeHint(mid(20), math.Nextafter(mid(20), 1))), head + 1 + label + 1},
		{"getbatch slot, header", func() (dht.Value, error) {
			vs, errs := c.ProbeBatch(ctx, []string{key}, ilht.ProbeHint(0.1, false))
			return vs[0], errs[0]
		}, head + 3 + 1 + label}, // the count, the slot's status and its length, then as a get's reply
	} {
		v, got := received(tc.call)
		if got != tc.want {
			t.Errorf("%s: the reply crossed as %d bytes, want %d (%T)", tc.name, got, tc.want, v)
		}
	}
	v, got := received(func() (dht.Value, error) { return c.Get(ctx, key) })
	if frame := 1 + 1 + len(stored); got != int64(len(appendUv(nil, uint64(frame)))+frame) {
		t.Errorf("a plain get's reply crossed as %d bytes, want the %d stored ones, epoch prefix and all, and a header", got, len(stored))
	}
	if _, ok := v.(*ilht.Bucket); !ok {
		t.Errorf("a plain get returned a %T", v)
	}
}

// FuzzKeyForm holds the key field to its grammar. Every string survives
// appendKey and cursor.key, packed exactly when it is a name of at most
// maxPackedBits bits. Read as a key field, arbitrary bytes either parse —
// and a packed form then is the one appendKey writes for the string it
// expands to — or fail; and a request whose key field fails is answered
// malformed, whatever the op, before the node serves or charges anything.
func FuzzKeyForm(f *testing.F) {
	for _, k := range append([]string{"#", "#0", "#0110", "#01101001", "#" + keyBits}, rawKeys...) {
		f.Add([]byte(k))
		f.Add(appendKey(nil, k))
	}
	f.Add([]byte{0x09, 0x68})                             // "#0110" with a pad bit set
	f.Add(append([]byte{0x83, 0x01}, make([]byte, 9)...)) // 65 bits
	f.Add([]byte{0x13, 0x69})                             // 9 bits, one byte short
	f.Add([]byte{0x81})                                   // a varint cut short
	f.Add([]byte{0x83, 0x00, 0x00})                       // "#0" under a two-byte x
	f.Fuzz(func(t *testing.T, data []byte) {
		var scratch keyScratch
		s := string(data)
		enc := appendKey(nil, s)
		c := cursor{b: enc}
		if got, err := c.key(&scratch); err != nil || string(got) != s || !c.empty() {
			t.Fatalf("%q crossed as % x and read back as %q, %v, % x left", s, enc, got, err, c.b)
		}
		if packed := enc[0]&1 == 1; packed != packable(s) {
			t.Fatalf("%q: packed %v, packable %v", s, packed, packable(s))
		}

		c = cursor{b: data}
		key, err := c.key(&scratch)
		if err == nil {
			// The bits after x are canonical; x itself, like every varint
			// of a frame, may come in more bytes than it needs.
			x, bits := binary.Uvarint(data)
			enc := appendKey(nil, string(key))
			if _, k := binary.Uvarint(enc); x&1 == 1 && !bytes.Equal(enc[k:], data[bits:len(data)-len(c.b)]) {
				t.Fatalf("% x read as %q, which packs as % x", data, key, enc)
			}
			return
		}
		for _, req := range []struct {
			op      dht.OpKind
			payload []byte
		}{
			{dht.OpGet, data},
			{dht.OpPut, data},
			{dht.OpRemoveIf, data},
			{dht.OpPatchIf, data},
			{dht.OpGetBatch, append([]byte{1}, data...)},
			{dht.OpPutBatch, append([]byte{1}, data...)},
		} {
			srv := NewServer()
			plantValue(srv, "#0110", []byte{tagRaw, 'v'})
			resp := replyBody(serve(srv, buildFrame(1, req.op, req.payload), nil))
			if !bytes.Equal(resp, appendStatusErr(nil, errMalformed)) {
				t.Fatalf("op %d with key field % x (%v) answered % x", req.op, data, err, resp)
			}
			if n := srv.Metrics().Lookup.Total; n != 0 || srv.Len() != 1 {
				t.Fatalf("op %d with key field % x charged %d lookups and left %d keys", req.op, data, n, srv.Len())
			}
		}
	})
}
