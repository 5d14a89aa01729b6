package bitlabel

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse checks that Parse never panics, accepts exactly the valid
// label grammar, and round-trips everything it accepts.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{"", "#", "#0", "#01", "#0110", "#1", "x", "#01x", "#" + strings.Repeat("0", 70)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		l, err := Parse(s)
		valid := len(s) >= 1 && s[0] == '#' && len(s)-1 <= MaxBits &&
			(len(s) == 1 || s[1] == '0') && strings.Trim(s[1:], "01") == ""
		if valid != (err == nil) {
			t.Fatalf("Parse(%q) err=%v, grammar validity=%v", s, err, valid)
		}
		if err != nil {
			return
		}
		if l.String() != s {
			t.Fatalf("round trip %q -> %q", s, l.String())
		}
		// The accepted label's operations must not panic and must agree
		// with the reference implementation.
		if l.Len() > 0 {
			if got, want := l.Name().String(), refName(s); got != want {
				t.Fatalf("Name(%q) = %q, want %q", s, got, want)
			}
		}
	})
}

// FuzzBinaryRoundTrip checks ReadBinary and UnmarshalBinary on arbitrary
// bytes: they must never panic, and the form is canonical — what ReadBinary
// accepts re-marshals to exactly the bytes it consumed, so a set pad bit
// is refused, and UnmarshalBinary accepts exactly the inputs with nothing
// past that form.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0})
	f.Add([]byte{1, 0x40})    // a pad bit
	f.Add([]byte{1, 0, 0})    // a trailing byte
	f.Add([]byte{9, 0x20, 0}) // too short for its bits
	f.Add([]byte{62, 0x20, 0, 0, 0, 0, 0, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, rest, err := ReadBinary(data)
		var whole Label
		werr := whole.UnmarshalBinary(data)
		if err != nil {
			if werr == nil {
				t.Fatalf("UnmarshalBinary accepted % x, which ReadBinary refuses: %v", data, err)
			}
			return
		}
		out, merr := l.MarshalBinary()
		if merr != nil || !bytes.Equal(out, data[:len(data)-len(rest)]) {
			t.Fatalf("% x read as %v re-marshals to % x (%v)", data, l, out, merr)
		}
		if (werr == nil) != (len(rest) == 0) || werr == nil && whole != l {
			t.Fatalf("UnmarshalBinary(% x) = %v, %v; ReadBinary left %d bytes", data, whole, werr, len(rest))
		}
	})
}

// FuzzNames checks Names against the set of names it counts on arbitrary
// labels and ranges.
func FuzzNames(f *testing.F) {
	f.Add(uint64(0), uint8(20), uint8(1), uint8(20))
	f.Add(uint64(0x5555), uint8(20), uint8(3), uint8(17))
	f.Add(^uint64(0), uint8(MaxBits), uint8(1), uint8(MaxBits))
	f.Fuzz(func(t *testing.T, val uint64, n, lo, hi uint8) {
		n = 1 + n%MaxBits
		lo, hi = 1+lo%n, 1+hi%n
		if lo > hi {
			lo, hi = hi, lo
		}
		l := Label{val: val & (1<<n - 1), n: n}
		if got, want := l.Names(int(lo), int(hi)), refNames(l, int(lo), int(hi)); got != want {
			t.Fatalf("%s.Names(%d, %d) = %d, want %d", l, lo, hi, got, want)
		}
	})
}
