package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// keysOf is the KeyBits of the key interval [lo, hi).
func keysOf(lo, hi float64) KeyBits {
	return KeyBits{Lo: math.Float64bits(lo), Hi: math.Float64bits(hi)}
}

// sameRecords reports whether got and want hold the same records, key
// bits and values, in the same order.
func sameRecords(got, want []Record) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Float64bits(got[i].Key) != math.Float64bits(want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			return false
		}
	}
	return true
}

// A packed run unpacks to what FilterRange keeps of the list it was cut
// from, record for record and in order, and takes the bytes its layout
// says: the count, one value length for values that share one, the keys'
// offsets in Width bits each, the values. It accepts exactly the lists
// DecodeList accepts and refuses a record in range whose key it cannot
// carry, leaving dst as it was.
func TestPackedRun(t *testing.T) {
	v := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	mixed := []Record{
		{Key: 0.5, Value: v(3, 1)},
		{Key: math.Nextafter(0.75, 0), Value: v(300, 2)}, // a two-byte length
		{Key: 0.6},
		{Key: 0.625, Value: v(1, 3)},
		{Key: math.NaN(), Value: []byte("in no range")},
	}
	even := []Record{{Key: 0.7, Value: v(64, 4)}, {Key: 0.55, Value: v(64, 5)}, {Key: 0.5, Value: v(64, 6)}}
	for name, tc := range map[string]struct {
		rs     []Record
		lo, hi float64
		keys   KeyBits
		size   int // the run's bytes, or 0 to skip the check
	}{
		"empty list":               {nil, 0, 1, keysOf(0.5, 0.75), 1},
		"none in range":            {mixed, 0.8, 0.9, keysOf(0.5, 0.75), 1},
		"mixed lengths":            {mixed, 0, 1, keysOf(0.5, 0.75), 1 + 1 + (1 + 2 + 1 + 1) + (4*51+7)/8 + 304},
		"one length":               {even, 0, 1, keysOf(0.5, 0.75), 1 + 1 + (3*51+7)/8 + 3*64},
		"some in range":            {mixed, 0.55, 0.7, keysOf(0.5, 0.75), 1 + 1 + 1 + 1 + (2*51+7)/8 + 1},
		"both ends of the keys":    {mixed[:2], 0, 1, keysOf(0.5, 0.75), 0},
		"zero-length values":       {[]Record{{Key: 0.5}, {Key: 0.6}}, 0, 1, keysOf(0.5, 0.75), 1 + 1 + 2 + (2*51+7)/8},
		"the leftmost leaf":        {[]Record{{Key: 0, Value: v(2, 7)}, {Key: math.SmallestNonzeroFloat64, Value: v(2, 8)}, {Key: math.Nextafter(0.5, 0), Value: v(2, 9)}}, 0, 1, keysOf(0, 0.5), 1 + 1 + (3*62+7)/8 + 6},
		"the root":                 {even, 0, 1, keysOf(0, 1), 1 + 1 + (3*62+7)/8 + 3*64},
		"one float":                {[]Record{{Key: 0.5, Value: v(1, 1)}}, 0, 1, KeyBits{Lo: math.Float64bits(0.5), Hi: math.Float64bits(0.5) + 1}, 1 + 1 + 1},
		"minus zero out of range":  {[]Record{{Key: math.Copysign(0, -1)}, {Key: 0.25, Value: v(1, 1)}}, 0.1, 1, keysOf(0, 0.5), 0},
		"a key past hi, not taken": {[]Record{{Key: 0.75}, {Key: 0.5, Value: v(1, 1)}}, 0, 0.75, keysOf(0.5, 0.75), 0},
	} {
		list := AppendList(nil, tc.rs)
		run, err := AppendRun([]byte("dst:"), list, tc.lo, tc.hi, tc.keys)
		if err != nil || !bytes.HasPrefix(run, []byte("dst:")) {
			t.Errorf("%s: AppendRun = %x, %v", name, run, err)
			continue
		}
		run = run[len("dst:"):]
		want := FilterRange(nil, tc.rs, tc.lo, tc.hi)
		if tc.size > 0 && len(run) != tc.size {
			t.Errorf("%s: the run of %d records takes %d bytes, want %d", name, len(want), len(run), tc.size)
		}
		if n, err := CountRun(run, tc.keys); err != nil || n != len(want) {
			t.Errorf("%s: CountRun = %d, %v, want %d", name, n, err, len(want))
		}
		got, err := UnpackRun([]Record{{Key: 9}}, run, tc.keys, math.Inf(-1), math.Inf(1))
		if err != nil || len(got) == 0 || got[0].Key != 9 || !sameRecords(got[1:], want) {
			t.Errorf("%s: UnpackRun = %v, %v; want %v after what dst held", name, got, err, want)
			continue
		}
		for _, r := range got[1:] {
			if cap(r.Value) != len(r.Value) || len(r.Value) == 0 && r.Value != nil {
				t.Errorf("%s: value %q is no capacity-clipped view, or an empty one not nil", name, r.Value)
			}
		}
		// The values are views of the run: its owner keeps them alive.
		if last := got[len(got)-1].Value; len(want) > 0 && len(last) > 0 {
			before := last[len(last)-1]
			run[len(run)-1] ^= 0xFF
			if last[len(last)-1] != before^0xFF {
				t.Errorf("%s: UnpackRun copied a value; it should view the run", name)
			}
			run[len(run)-1] ^= 0xFF
		}
		// The decoder filters too: a subrange takes what FilterRange keeps.
		if sub, err := UnpackRun(nil, run, tc.keys, 0.55, 0.7); err != nil || !sameRecords(sub, FilterRange(nil, want, 0.55, 0.7)) {
			t.Errorf("%s: UnpackRun of [0.55, 0.7) = %v, %v", name, sub, err)
		}
	}

	// A key in range that the run's bits do not hold is refused, dst
	// untouched: -0's sign bit, and a key past the interval.
	for name, tc := range map[string]struct {
		rs   []Record
		keys KeyBits
	}{
		"minus zero":   {[]Record{{Key: 0.25}, {Key: math.Copysign(0, -1), Value: []byte("z")}}, keysOf(0, 0.5)},
		"past hi":      {[]Record{{Key: 0.75}}, keysOf(0.5, 0.75)},
		"below lo":     {[]Record{{Key: 0.25}}, keysOf(0.5, 0.75)},
		"no key fits":  {[]Record{{Key: 0.5}}, KeyBits{Lo: 7, Hi: 7}},
		"one past one": {[]Record{{Key: math.Nextafter(0.5, 1)}}, KeyBits{Lo: math.Float64bits(0.5), Hi: math.Float64bits(0.5) + 1}},
	} {
		if out, err := AppendRun([]byte("dst:"), AppendList(nil, tc.rs), 0, 1, tc.keys); !errors.Is(err, ErrOutsideKeys) || string(out) != "dst:" {
			t.Errorf("%s: AppendRun = %q, %v, want ErrOutsideKeys", name, out, err)
		}
	}

	// Nothing allocates with room in dst.
	list := AppendList(nil, mixed)
	keys := keysOf(0.5, 0.75)
	buf := make([]byte, 0, len(list))
	for _, r := range [][2]float64{{0, 1}, {0.55, 0.7}, {0.8, 0.9}} {
		if n := testing.AllocsPerRun(100, func() { buf, _ = AppendRun(buf[:0], list, r[0], r[1], keys) }); n != 0 {
			t.Errorf("AppendRun(%v) into a sized buffer: %v allocations, want 0", r, n)
		}
	}
	run, _ := AppendRun(nil, list, 0, 1, keys)
	recs := make([]Record, 0, len(mixed))
	if n := testing.AllocsPerRun(100, func() { _, _ = CountRun(run, keys) }); n != 0 {
		t.Errorf("CountRun: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { recs, _ = UnpackRun(recs[:0], run, keys, 0, 1) }); n != 0 {
		t.Errorf("UnpackRun into a sized slice: %v allocations, want 0", n)
	}

	// A list that does not parse is cut by nothing, whatever the range.
	data := AppendList(nil, mixed)
	one := AppendList(nil, mixed[:1])
	for name, bad := range map[string][]byte{
		"empty":              {},
		"count past the end": binary.AppendUvarint(nil, 1<<40),
		"truncated":          data[:len(data)-1],
		"trailing byte":      append(append([]byte(nil), data...), 0),
		"padded count":       append([]byte{0x81, 0x00}, one[1:]...),
		"padded length":      append(append([]byte{1}, make([]byte, 8)...), 0x81, 0x00, 'x'),
	} {
		if _, err := DecodeList(bad); err == nil {
			t.Fatalf("%s: DecodeList accepts it", name)
		}
		if n, err := CountList(bad); err == nil {
			t.Errorf("%s: CountList = %d", name, n)
		}
		if out, n, err := AppendHalf([]byte("dst:"), bad, 0.5, true); err == nil || string(out) != "dst:" || n != 0 {
			t.Errorf("%s: AppendHalf = %q, %d, %v", name, out, n, err)
		}
		if n, err := CountHalf(bad, 0.5, false); err == nil || n != 0 {
			t.Errorf("%s: CountHalf = %d, %v", name, n, err)
		}
		for _, r := range [][2]float64{{0, 1}, {0.7, 0.8}, {0.9, 1}} {
			if out, err := AppendRun([]byte("dst:"), bad, r[0], r[1], keys); err == nil || string(out) != "dst:" {
				t.Errorf("%s: AppendRun(%v) = %q, %v", name, r, out, err)
			}
		}
	}
}

// Every run that is not one AppendRun writes is refused, by CountRun and
// UnpackRun alike, before anything is allocated and with dst as it was: a
// count the bytes cannot hold, a cut anywhere, a byte too many, a pad bit,
// an offset past the keys, a shared length written per record, a padded
// varint.
func TestPackedRunMalformed(t *testing.T) {
	left := keysOf(0, 0.5) // 62-bit offsets, of which 0.5's and up are past hi
	rs := []Record{{Key: 0.25, Value: []byte("ab")}, {Key: 0.125, Value: []byte("c")}}
	run, err := AppendRun(nil, AppendList(nil, rs), 0, 1, left)
	if err != nil {
		t.Fatal(err)
	}
	even, _ := AppendRun(nil, AppendList(nil, []Record{{Key: 0.25, Value: []byte("x")}}), 0, 1, left)
	// run: count 2, 0, lengths 2 and 1, 16 bytes of keys (124 bits, 4 pad
	// bits), 3 bytes of values.
	keysAt := 1 + 1 + 2
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	with := func(b []byte, i int, x byte) []byte {
		b = append([]byte(nil), b...)
		b[i] = x
		return b
	}
	past := append([]byte(nil), even...) // the one key's offset set to 0.5's: at hi
	binary.BigEndian.PutUint64(past[2:], math.Float64bits(0.5)<<2)
	bad := map[string][]byte{
		"empty":                       {},
		"count past the end":          cat(binary.AppendUvarint(nil, 1<<40), run[1:]),
		"count one too many":          with(run, 0, 3),
		"padded count":                cat([]byte{0x82, 0x00}, run[1:]),
		"padded length":               cat(run[:2], []byte{0x82, 0x00}, run[3:]),
		"keys cut short":              run[:keysAt+15],
		"values cut short":            run[:len(run)-1],
		"a byte past the values":      cat(run, []byte{0}),
		"a byte after an empty run":   {0, 0},
		"a pad bit set":               with(run, keysAt+15, run[keysAt+15]|1),
		"an offset at hi":             past,
		"an offset past hi":           with(past, 2, past[2]|0x80),
		"one length written per item": cat([]byte{1, 0, 1}, even[2:]),
		"no length":                   {1},
	}
	for n := 0; n < len(run); n++ {
		bad["a cut at "+string(rune('0'+n/10))+string(rune('0'+n%10))] = run[:n]
	}
	for name, b := range bad {
		if n, err := CountRun(b, left); err == nil {
			t.Errorf("%s: CountRun = %d", name, n)
		}
		dst := []Record{{Key: 9}}
		if got, err := UnpackRun(dst, b, left, 0, 1); err == nil || len(got) != 1 || got[0].Key != 9 {
			t.Errorf("%s: UnpackRun = %v, %v", name, got, err)
		}
		if a := testing.AllocsPerRun(20, func() { _, _ = CountRun(b, left) }); a != 0 {
			t.Errorf("%s: CountRun allocates %v times to refuse it", name, a)
		}
	}
	// The canonical forms themselves pass.
	for _, good := range [][]byte{run, even, {0}} {
		if _, err := CountRun(good, left); err != nil {
			t.Errorf("%x: %v", good, err)
		}
	}
}

// putBits and getBits agree at every width and every bit phase, leave the
// bits around them alone and read past the block's end as zero.
func TestBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for w := uint(0); w <= 64; w++ {
		for s := uint(0); s < 8; s++ {
			vals := make([]uint64, 5)
			block := make([]byte, (s+5*w+7)/8)
			for i := range vals {
				if vals[i] = rng.Uint64(); w < 64 {
					vals[i] &= 1<<w - 1
				}
				putBits(block, s+uint(i)*w, vals[i], w)
			}
			for i, want := range vals {
				if got := getBits(block, s+uint(i)*w, w); got != want {
					t.Fatalf("width %d, phase %d, value %d: got %#x, want %#x", w, s, i, got, want)
				}
			}
			if s > 0 && block[0]>>(8-s) != 0 {
				t.Fatalf("width %d, phase %d: bits before the first value set", w, s)
			}
		}
	}
	if got := getBits([]byte{0xAB}, 4, 12); got != 0xB00 {
		t.Errorf("getBits past the end = %#x, want 0xb00", got)
	}
}
