package bitlabel

import (
	"errors"
	"math/rand"
	"testing"
)

func TestParseAndString(t *testing.T) {
	cases := []string{"#", "#0", "#00", "#01", "#0100", "#01100", "#01011", "#0111111"}
	for _, s := range cases {
		l, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := l.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
		if got := l.Len(); got != len(s)-1 {
			t.Errorf("Parse(%q).Len() = %d, want %d", s, got, len(s)-1)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in   string
		want error
	}{
		{"", ErrBadLabel},
		{"0110", ErrBadLabel},
		{"#1", ErrBadLabel},    // first bit must be 0
		{"#10", ErrBadLabel},   // first bit must be 0
		{"#01x0", ErrBadLabel}, // non-bit character
		{"# 0", ErrBadLabel},   // space
		{"#0" + repeat("0", MaxBits), ErrTooDeep},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("Parse(%q) = %v, want %v", tc.in, err, tc.want)
		}
	}
}

func repeat(s string, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += s
	}
	return out
}

// Names agrees with the set of names it counts for every range of prefix
// lengths of random labels at the paper's depth and at the deepest a label
// goes, one run throughout and a zero then a run of ones among them.
func TestNamesCountsThePrefixesNames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, depth := range []int{20, MaxBits} {
		below := uint64(1)<<(depth-1) - 1 // every bit but the root edge's
		for i := 0; i < 50; i++ {
			l := Label{val: rng.Uint64() & below, n: uint8(depth)}
			if i < 2 {
				l.val = uint64(i) * below
			}
			for lo := 1; lo <= l.Len(); lo++ {
				for hi := lo; hi <= l.Len(); hi++ {
					if got, want := l.Names(lo, hi), refNames(l, lo, hi); got != want {
						t.Fatalf("%s.Names(%d, %d) = %d, want %d", l, lo, hi, got, want)
					}
				}
			}
		}
	}
}

// IsKey is the comparison with Key, for a label's own key, the keys of its
// relatives and strings that are no key at all.
func TestIsKeyComparesWithKey(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		l := MustParse(randLabelString(rng, MaxBits-1))
		others := []string{"", "#", "x" + l.Key()[1:], l.Key() + "0", l.Parent().Key(), l.Child(1).Key()}
		if l.Len() > 1 {
			others = append(others, l.Sibling().Key())
		}
		for _, key := range append(others, l.Key()) {
			if got, want := l.IsKey(key), l.Key() == key; got != want {
				t.Fatalf("%s.IsKey(%q) = %v, want %v", l, key, got, want)
			}
		}
	}
	if !Root.IsKey("#") || Root.IsKey("") {
		t.Error("the virtual root's key is \"#\"")
	}
}

// Names panics on a range that is empty or leaves the label.
func TestNamesPanicsOutOfRange(t *testing.T) {
	l := MustParse("#0110")
	for _, r := range [][2]int{{0, 2}, {3, 2}, {1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Names(%d, %d) of %s did not panic", r[0], r[1], l)
				}
			}()
			l.Names(r[0], r[1])
		}()
	}
}

func TestRootConstants(t *testing.T) {
	if Root.String() != "#" {
		t.Errorf("Root = %q", Root.String())
	}
	if !Root.IsRoot() {
		t.Error("Root.IsRoot() = false")
	}
	if TreeRoot.String() != "#0" {
		t.Errorf("TreeRoot = %q", TreeRoot.String())
	}
	if TreeRoot.IsRoot() {
		t.Error("TreeRoot.IsRoot() = true")
	}
}

func TestChildParentSibling(t *testing.T) {
	l := MustParse("#010")
	if got := l.Left().String(); got != "#0100" {
		t.Errorf("Left = %q", got)
	}
	if got := l.Right().String(); got != "#0101" {
		t.Errorf("Right = %q", got)
	}
	if got := l.Parent().String(); got != "#01" {
		t.Errorf("Parent = %q", got)
	}
	if got := l.Sibling().String(); got != "#011" {
		t.Errorf("Sibling = %q", got)
	}
	if got := l.Sibling().Sibling(); got != l {
		t.Errorf("Sibling is not an involution: %v", got)
	}
}

func TestBitAndLastBit(t *testing.T) {
	l := MustParse("#01101")
	want := []int{0, 1, 1, 0, 1}
	for i, w := range want {
		if got := l.Bit(i); got != w {
			t.Errorf("Bit(%d) = %d, want %d", i, got, w)
		}
	}
	if l.LastBit() != 1 {
		t.Errorf("LastBit = %d", l.LastBit())
	}
	if MustParse("#0110").LastBit() != 0 {
		t.Error("LastBit(#0110) != 0")
	}
}

func TestPrefixAndIsPrefixOf(t *testing.T) {
	l := MustParse("#01101")
	if got := l.Prefix(3).String(); got != "#011" {
		t.Errorf("Prefix(3) = %q", got)
	}
	if got := l.Prefix(0); got != Root {
		t.Errorf("Prefix(0) = %v", got)
	}
	if !MustParse("#011").IsPrefixOf(l) {
		t.Error("#011 should be a prefix of #01101")
	}
	if !l.IsPrefixOf(l) {
		t.Error("IsPrefixOf should be reflexive")
	}
	if MustParse("#010").IsPrefixOf(l) {
		t.Error("#010 is not a prefix of #01101")
	}
	if l.IsPrefixOf(MustParse("#011")) {
		t.Error("a longer label cannot be a prefix of a shorter one")
	}
}

// TestNamePaperExamples checks f_n against every example in the paper.
func TestNamePaperExamples(t *testing.T) {
	cases := []struct{ in, want string }{
		{"#01100", "#011"}, // section 3.4
		{"#01011", "#010"}, // section 3.4
		{"#01111", "#0"},   // Fig. 4
		{"#0", "#"},        // the single-leaf tree: lambda = #00* with no zeros
		{"#00", "#"},
		{"#000", "#"},
		{"#01", "#0"},
		{"#0111001", "#011100"}, // section 5 example
		{"#011", "#0"},          // section 5 example
		{"#0011", "#00"},
		{"#00111", "#00"}, // section 5: f_n(#00111) = #00 = f_n(#0011)
	}
	for _, tc := range cases {
		if got := MustParse(tc.in).Name().String(); got != tc.want {
			t.Errorf("Name(%s) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestNextNamePaperExample(t *testing.T) {
	// Section 5: f_nn(#0011, #0011100) = #001110.
	x := MustParse("#0011")
	mu := MustParse("#0011100")
	next, ok := x.NextName(mu)
	if !ok || next.String() != "#001110" {
		t.Errorf("NextName = %v, %v; want #001110, true", next, ok)
	}
	// Section 5 lookup example: f_nn(#011, #01110011001100) = #01110.
	x = MustParse("#011")
	mu = MustParse("#01110011001100")
	next, ok = x.NextName(mu)
	if !ok || next.String() != "#01110" {
		t.Errorf("NextName = %v, %v; want #01110, true", next, ok)
	}
}

func TestNextNameExhausted(t *testing.T) {
	x := MustParse("#011")
	mu := MustParse("#011111")
	if next, ok := x.NextName(mu); ok {
		t.Errorf("NextName should be exhausted, got %v", next)
	}
}

func TestNeighborsPaperFigure(t *testing.T) {
	// Fig. 5b / section 6.2 example: f_rn(#000) = #001, f_rn(#001) = #01,
	// f_ln(#0011) = #0010's branch #001... the example uses
	// f_n(f_ln(#0011)) = #001.
	rn := func(s string) string {
		b, ok := MustParse(s).RightNeighbor()
		if !ok {
			return "<rightmost>"
		}
		return b.String()
	}
	ln := func(s string) string {
		b, ok := MustParse(s).LeftNeighbor()
		if !ok {
			return "<leftmost>"
		}
		return b.String()
	}
	if got := rn("#000"); got != "#001" {
		t.Errorf("f_rn(#000) = %s", got)
	}
	if got := rn("#001"); got != "#01" {
		t.Errorf("f_rn(#001) = %s", got)
	}
	if got := ln("#0011"); got != "#0010" {
		t.Errorf("f_ln(#0011) = %s", got)
	}
	if got := MustParse("#0010").Name().String(); got != "#001" {
		t.Errorf("f_n(#0010) = %s", got)
	}
	// Edges of the tree.
	if got := rn("#0111"); got != "<rightmost>" {
		t.Errorf("f_rn(#0111) = %s, want rightmost", got)
	}
	if got := ln("#000"); got != "<leftmost>" {
		t.Errorf("f_ln(#000) = %s, want leftmost", got)
	}
	if got := rn("#0"); got != "<rightmost>" {
		t.Errorf("f_rn(#0) = %s, want rightmost", got)
	}
	if got := ln("#0"); got != "<leftmost>" {
		t.Errorf("f_ln(#0) = %s, want leftmost", got)
	}
}

func TestLCA(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"#0010", "#0011", "#001"},
		{"#000", "#011", "#0"},
		{"#0", "#0110", "#0"},
		{"#0101", "#0101", "#0101"},
		{"#001", "#01", "#0"},
	}
	for _, tc := range cases {
		if got := LCA(MustParse(tc.a), MustParse(tc.b)).String(); got != tc.want {
			t.Errorf("LCA(%s, %s) = %s, want %s", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"#000", "#001", -1},
		{"#001", "#000", 1},
		{"#00", "#001", 0}, // ancestor
		{"#0101", "#0101", 0},
		{"#011", "#000", 1},
	}
	for _, tc := range cases {
		if got := Compare(MustParse(tc.a), MustParse(tc.b)); got != tc.want {
			t.Errorf("Compare(%s, %s) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Name of root", func() { Root.Name() })
	mustPanic("Parent of root", func() { Root.Parent() })
	mustPanic("Sibling of tree root", func() { TreeRoot.Sibling() })
	mustPanic("LastBit of root", func() { Root.LastBit() })
	mustPanic("Bit out of range", func() { TreeRoot.Bit(1) })
	mustPanic("Prefix out of range", func() { TreeRoot.Prefix(2) })
	mustPanic("Child bad bit", func() { TreeRoot.Child(2) })
	mustPanic("NextName not a prefix", func() {
		MustParse("#01").NextName(MustParse("#00"))
	})
	mustPanic("NextName equal", func() {
		MustParse("#01").NextName(MustParse("#01"))
	})
	deep := TreeRoot
	for deep.Len() < MaxBits {
		deep = deep.Left()
	}
	mustPanic("Child beyond MaxBits", func() { deep.Left() })
}

// TestAgainstReference cross-checks every operation against the naive
// string implementation on a large random sample.
func TestAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		s := randLabelString(rng, 60)
		l := MustParse(s)

		if l.String() != s {
			t.Fatalf("round trip %q -> %q", s, l.String())
		}
		if got, want := l.Name().String(), refName(s); got != want {
			t.Fatalf("Name(%s) = %s, want %s", s, got, want)
		}
		gotRN, okRN := l.RightNeighbor()
		wantRN, wantOKRN := refRightNeighbor(s)
		if okRN != wantOKRN || gotRN.String() != wantRN {
			t.Fatalf("RightNeighbor(%s) = %s,%v want %s,%v", s, gotRN, okRN, wantRN, wantOKRN)
		}
		gotLN, okLN := l.LeftNeighbor()
		wantLN, wantOKLN := refLeftNeighbor(s)
		if okLN != wantOKLN || gotLN.String() != wantLN {
			t.Fatalf("LeftNeighbor(%s) = %s,%v want %s,%v", s, gotLN, okLN, wantLN, wantOKLN)
		}

		// NextName against a random proper extension of l.
		mu := l
		for j := 0; j < 1+rng.Intn(5) && mu.Len() < MaxBits; j++ {
			mu = mu.Child(rng.Intn(2))
		}
		if mu.Len() > l.Len() {
			gotNN, okNN := l.NextName(mu)
			wantNN, wantOKNN := refNextName(s, mu.String())
			if okNN != wantOKNN || (okNN && gotNN.String() != wantNN) {
				t.Fatalf("NextName(%s, %s) = %v,%v want %v,%v", s, mu, gotNN, okNN, wantNN, wantOKNN)
			}
		}

		// LCA against a second random label.
		s2 := randLabelString(rng, 60)
		if got, want := LCA(l, MustParse(s2)).String(), refLCA(s, s2); got != want {
			t.Fatalf("LCA(%s, %s) = %s, want %s", s, s2, got, want)
		}
	}
}

// TestNameBijection verifies Theorem 1 constructively: over the complete
// tree of every depth up to 12, f_n maps the leaf set one-to-one onto the
// internal-node set.
func TestNameBijection(t *testing.T) {
	for depth := 1; depth <= 12; depth++ {
		// Build the complete tree of the given depth: internal nodes are
		// all labels shorter than depth, leaves all labels of exactly
		// depth bits (plus the virtual root as an internal node).
		seen := make(map[Label]bool)
		var walk func(l Label)
		var internals int
		walk = func(l Label) {
			if l.Len() == depth { // leaf
				name := l.Name()
				if seen[name] {
					t.Fatalf("depth %d: name %s hit twice (leaf %s)", depth, name, l)
				}
				seen[name] = true
				return
			}
			internals++
			walk(l.Left())
			walk(l.Right())
		}
		internals++ // virtual root
		walk(TreeRoot)
		if len(seen) != internals {
			t.Fatalf("depth %d: %d names for %d internal nodes", depth, len(seen), internals)
		}
		// Every name must itself be an internal-node label (a proper
		// prefix of some leaf): length < depth.
		for name := range seen {
			if name.Len() >= depth {
				t.Fatalf("depth %d: name %s is not an internal node", depth, name)
			}
		}
	}
}

// TestSplitTheorem verifies Theorem 2: splitting leaf lambda yields one
// child named f_n(lambda) and one named lambda.
func TestSplitTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		l := MustParse(randLabelString(rng, 60))
		names := map[string]bool{
			l.Left().Name().String():  true,
			l.Right().Name().String(): true,
		}
		if !names[l.Name().String()] || !names[l.String()] {
			t.Fatalf("split of %s names children %v; want {%s, %s}", l, names, l.Name(), l)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	labels := []Label{Root, TreeRoot}
	for i := 0; i < 2000; i++ {
		labels = append(labels, MustParse(randLabelString(rng, 60)))
	}
	for _, l := range labels {
		data, err := l.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal %s: %v", l, err)
		}
		if want := 1 + (l.Len()+7)/8; len(data) != want {
			t.Fatalf("%s marshals to %d bytes, want %d", l, len(data), want)
		}
		if got, rest, err := ReadBinary(append(data, 0xAB)); err != nil || got != l || len(rest) != 1 {
			t.Fatalf("ReadBinary of %s and a byte = %v, % x, %v", l, got, rest, err)
		}
		var got Label
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal %s: %v", l, err)
		}
		if got != l {
			t.Fatalf("round trip %s -> %s", l, got)
		}
	}
}

func TestUnmarshalBinaryErrors(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":            {},
		"short":            {9, 0},
		"length > MaxBits": append([]byte{63}, make([]byte, 8)...),
		"pad bit set":      {1, 0x40},
		"first bit 1":      {1, 0x80},
		"trailing byte":    {1, 0, 0},
	} {
		var l Label
		if err := l.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: % x decoded to %v", name, data, l)
		}
	}
}
