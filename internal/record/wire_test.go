package record

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestListRoundTrip(t *testing.T) {
	rs := []Record{
		{Key: 0.125, Value: []byte("a")},
		{Key: math.Copysign(0, -1)},
		{Key: 0.75, Value: bytes.Repeat([]byte{7}, 300)}, // two-byte length
	}
	data := AppendList([]byte("prefix"), rs)
	if got, want := len(data)-len("prefix"), ListSize(rs); got != want {
		t.Fatalf("ListSize = %d, AppendList wrote %d", want, got)
	}
	got, err := DecodeList(data[len("prefix"):])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rs) {
		t.Fatalf("%d records, want %d", len(got), len(rs))
	}
	for i := range rs {
		if math.Float64bits(got[i].Key) != math.Float64bits(rs[i].Key) || !bytes.Equal(got[i].Value, rs[i].Value) {
			t.Errorf("record %d: %v, want %v", i, got[i], rs[i])
		}
		if cap(got[i].Value) != len(got[i].Value) {
			t.Errorf("record %d: value not capacity-clipped", i)
		}
	}
	// Values are views of the buffer handed in, not copies.
	data[len(data)-1] ^= 0xFF
	if got[2].Value[299] == 7 {
		t.Error("DecodeList copied the value; it should share the caller's buffer")
	}
}

func TestDecodeListMalformed(t *testing.T) {
	one := AppendList(nil, []Record{{Key: 0.5, Value: []byte("v")}})
	cases := map[string][]byte{
		"empty":              {},
		"count past the end": binary.AppendUvarint(nil, 1<<40),
		"count just too big": {2, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // 2 records claimed, 9 bytes follow
		"truncated key":      {1, 0, 0, 0},
		"value past the end": append(append([]byte{1}, make([]byte, 8)...), 5, 'x'),
		"padded count":       append([]byte{0x81, 0x00}, one[1:]...),
		"trailing byte":      append(append([]byte(nil), one...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeList(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestReadUvarint(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64} {
		got, rest, err := ReadUvarint(append(binary.AppendUvarint(nil, v), 0xEE))
		if err != nil || got != v || len(rest) != 1 {
			t.Errorf("ReadUvarint(%d) = %d, %d left, %v", v, got, len(rest), err)
		}
		if n := len(binary.AppendUvarint(nil, v)); UvarintLen(v) != n {
			t.Errorf("UvarintLen(%d) = %d, want %d", v, UvarintLen(v), n)
		}
	}
	for name, b := range map[string][]byte{
		"empty":     {},
		"unended":   {0x80},
		"padded":    {0x80, 0x00},
		"overflows": bytes.Repeat([]byte{0xFF}, 11),
	} {
		if _, _, err := ReadUvarint(b); err == nil {
			t.Errorf("%s: read without error", name)
		}
	}
}

// FindInList agrees with FindByKey on what DecodeList decodes, accepts
// exactly the lists DecodeList accepts, and returns the one record's
// encoding, which decodes as a list of one.
func TestFindInList(t *testing.T) {
	rs := []Record{
		{Key: 0.125, Value: []byte("a")},
		{Key: math.Copysign(0, -1), Value: []byte("minus zero")},
		{Key: 0.75, Value: bytes.Repeat([]byte{7}, 300)},
		{Key: 0.125, Value: []byte("shadowed")},
		{Key: math.NaN(), Value: []byte("never matches")},
		{Key: 0.5},
	}
	data := AppendList(nil, rs)
	for _, key := range []float64{0.125, 0, math.Copysign(0, -1), 0.75, 0.5, 0.3, math.NaN()} {
		enc, err := FindInList(data, key)
		if err != nil {
			t.Fatalf("FindInList(%v): %v", key, err)
		}
		i := FindByKey(rs, key)
		if (enc != nil) != (i >= 0) {
			t.Fatalf("FindInList(%v) found %v, FindByKey says %d", key, enc != nil, i)
		}
		if i < 0 {
			continue
		}
		got, err := DecodeList(append([]byte{1}, enc...))
		if err != nil || len(got) != 1 || math.Float64bits(got[0].Key) != math.Float64bits(rs[i].Key) || !bytes.Equal(got[0].Value, rs[i].Value) {
			t.Errorf("FindInList(%v) = %v, %v, want record %d %v", key, got, err, i, rs[i])
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = FindInList(data, 0.75) }); n != 0 {
		t.Errorf("FindInList: %v allocations, want 0", n)
	}

	one := AppendList(nil, rs[:1])
	for name, bad := range map[string][]byte{
		"empty":              {},
		"count past the end": binary.AppendUvarint(nil, 1<<40),
		"truncated":          data[:len(data)-1],
		"trailing byte":      append(append([]byte(nil), data...), 0),
		"padded count":       append([]byte{0x81, 0x00}, one[1:]...),
	} {
		if _, err := DecodeList(bad); err == nil {
			t.Fatalf("%s: DecodeList accepts it", name)
		}
		// A hit before the damage must not come back either.
		if enc, err := FindInList(bad, 0.125); err == nil {
			t.Errorf("%s: FindInList walked it without error (hit: %v)", name, enc != nil)
		}
	}
}

// upsert and remove are the struct-level mutations the indexes make; the
// list splicers must produce the encoding of their result.
func upsert(rs []Record, r Record) []Record {
	out := append([]Record(nil), rs...)
	if i := FindByKey(out, r.Key); i >= 0 {
		out[i] = r
		return out
	}
	return append(out, r)
}

func remove(rs []Record, key float64) ([]Record, bool) {
	out := append([]Record(nil), rs...)
	i := FindByKey(out, key)
	if i < 0 {
		return nil, false
	}
	out[i] = out[len(out)-1]
	return out[:len(out)-1], true
}

// UpsertInList and DeleteFromList splice the encoded list into exactly
// what encoding the mutated decoded list gives, keep what dst held, grow
// nothing but dst, and refuse every list DecodeList refuses.
func TestSpliceList(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rs := []Record{
		{Key: 0.125, Value: []byte("a")},
		{Key: 0, Value: []byte("plus zero")},
		{Key: 0.75, Value: bytes.Repeat([]byte{7}, 300)},
		{Key: 0.125, Value: []byte("shadowed")},
		{Key: 0.5},
	}
	wide := make([]Record, 127)
	for i := range wide {
		wide[i] = Record{Key: float64(i) / 128, Value: []byte{byte(i)}}
	}
	prefix := []byte("kept")
	for name, tc := range map[string]struct {
		list []Record
		put  *Record
		del  float64
	}{
		"append":                      {list: rs, put: &Record{Key: 0.3, Value: []byte("new")}},
		"append to an empty list":     {put: &Record{Key: 0.3}},
		"replace first of duplicates": {list: rs, put: &Record{Key: 0.125, Value: []byte("longer than it was")}},
		"replace +0 by -0":            {list: rs, put: &Record{Key: negZero, Value: []byte("minus")}},
		"replace last":                {list: rs, put: &Record{Key: 0.5, Value: []byte("v")}},
		"count 127 to 128":            {list: wide, put: &Record{Key: 0.999}},
		"delete last":                 {list: rs, del: 0.5},
		"delete middle":               {list: rs, del: 0.75},
		"delete first of duplicates":  {list: rs, del: 0.125},
		"delete the only record":      {list: rs[:1], del: 0.125},
		"count 128 to 127":            {list: append(wide[:127:127], Record{Key: 0.999}), del: 0.5},
	} {
		list := AppendList(nil, tc.list)
		var got []byte
		var count uint64
		var err error
		var want, rec []byte
		if tc.put != nil {
			want = AppendList(append([]byte(nil), prefix...), upsert(tc.list, *tc.put))
			rec = AppendList(nil, []Record{*tc.put})[1:]
		} else {
			left, _ := remove(tc.list, tc.del)
			want = AppendList(append([]byte(nil), prefix...), left)
		}
		splice := func(dst []byte) {
			if tc.put != nil {
				got, count, err = UpsertInList(dst, list, rec)
			} else {
				got, count, err = DeleteFromList(dst, list, tc.del)
			}
		}
		splice(append([]byte(nil), prefix...))
		if wantCount, _, _ := ReadUvarint(want[len(prefix):]); err != nil || count != wantCount || !bytes.Equal(got, want) {
			t.Errorf("%s: %d records, %v; spliced\n%x, want\n%x", name, count, err, got, want)
		}
		dst := make([]byte, 0, len(list)+64)
		if n := testing.AllocsPerRun(50, func() { splice(dst) }); n != 0 {
			t.Errorf("%s: %v allocations into a dst with room, want 0", name, n)
		}
	}
	list := AppendList(nil, rs)
	if _, _, err := DeleteFromList(nil, list, 0.3); err != ErrNoRecord {
		t.Errorf("delete of an absent key: %v, want ErrNoRecord", err)
	}
	if _, _, err := DeleteFromList(nil, list, math.NaN()); err != ErrNoRecord {
		t.Errorf("delete of NaN: %v, want ErrNoRecord", err)
	}
	rec := AppendList(nil, rs[:1])[1:]
	for name, bad := range map[string][]byte{
		"empty":         {},
		"truncated":     list[:len(list)-1],
		"trailing byte": append(append([]byte(nil), list...), 0),
		"padded count":  append([]byte{0x81, 0x00}, rec...),
	} {
		if out, _, err := UpsertInList(prefix, bad, rec); err == nil || !bytes.Equal(out, prefix) {
			t.Errorf("%s: UpsertInList = %x, %v", name, out, err)
		}
		if out, _, err := DeleteFromList(prefix, bad, 0.125); err == nil || err == ErrNoRecord || !bytes.Equal(out, prefix) {
			t.Errorf("%s: DeleteFromList = %x, %v", name, out, err)
		}
	}
	for name, bad := range map[string][]byte{
		"empty":         {},
		"short value":   rec[:len(rec)-1],
		"trailing byte": append(append([]byte(nil), rec...), 0),
		"two records":   append(append([]byte(nil), rec...), rec...),
	} {
		if out, _, err := UpsertInList(prefix, list, bad); err == nil || !bytes.Equal(out, prefix) {
			t.Errorf("record %s: UpsertInList = %x, %v", name, out, err)
		}
	}
}

// AppendHalf cuts a list where a leaf split cuts its records: the keys
// below mid one side, every other key — NaN and +Inf too, and a key equal
// to mid — the other, each side in list order; CountHalf counts a side
// and CountList a list. None allocates with room in dst.
func TestAppendHalf(t *testing.T) {
	rs := []Record{
		{Key: 1, Value: []byte("top")},
		{Key: 0.25, Value: []byte("a")},
		{Key: math.NaN(), Value: []byte("nan")},
		{Key: 0.5},
		{Key: math.Inf(1)},
		{Key: math.Copysign(0, -1), Value: []byte("minus zero")},
	}
	list := AppendList(nil, rs)
	var below, rest []Record
	for _, r := range rs {
		if r.Key < 0.5 {
			below = append(below, r)
		} else {
			rest = append(rest, r)
		}
	}
	for low, want := range map[bool][]Record{true: below, false: rest} {
		out, n, err := AppendHalf([]byte("dst:"), list, 0.5, low)
		if err != nil || n != uint64(len(want)) || !bytes.Equal(out, AppendList([]byte("dst:"), want)) {
			t.Errorf("low %v: AppendHalf = %x, %d, %v; want the list of %v", low, out, n, err, want)
		}
		if n, err := CountHalf(list, 0.5, low); err != nil || n != uint64(len(want)) {
			t.Errorf("low %v: CountHalf = %d, %v, want %d", low, n, err, len(want))
		}
		if a := testing.AllocsPerRun(100, func() { _, _ = CountHalf(list, 0.5, low) }); a != 0 {
			t.Errorf("low %v: CountHalf allocates %v times, want 0", low, a)
		}
		buf := make([]byte, 0, len(list))
		if a := testing.AllocsPerRun(100, func() { buf, _, _ = AppendHalf(buf[:0], list, 0.5, low) }); a != 0 {
			t.Errorf("low %v: %v allocations into a sized buffer, want 0", low, a)
		}
	}
	if n, err := CountList(list); err != nil || n != uint64(len(rs)) {
		t.Errorf("CountList = %d, %v, want %d", n, err, len(rs))
	}
	if n, err := CountList(AppendList(nil, nil)); err != nil || n != 0 {
		t.Errorf("CountList of the empty list = %d, %v", n, err)
	}
}
