// Package bitlabel implements the label algebra of the LHT space-partition
// tree (Tang & Zhou, ICDCS 2008, sections 3-4).
//
// Every node of the partition tree carries a label: the virtual root is
// "#", and every other node's label is "#" followed by the bit string of
// the edges on the path from the virtual root. The edge from the virtual
// root to the regular root is labeled 0, so every non-virtual label starts
// with "#0". Left edges append 0, right edges append 1.
//
// The package provides the four label functions the paper defines:
//
//   - Name (f_n, Definition 1): the naming function mapping each leaf label
//     bijectively onto an internal-node label (Theorem 1), used as the DHT
//     key of the corresponding leaf bucket.
//   - NextName (f_nn, Definition 2): the next-naming function used by the
//     lookup binary search to skip prefixes that share a name.
//   - RightNeighbor / LeftNeighbor (f_rn / f_ln, Definition 3): the branch
//     enumeration used by range-query forwarding.
//   - LCA: the lowest common ancestor used by the general range case.
//
// A Label packs its bits into a uint64, so depths up to MaxBits are
// supported; the paper's experiments use D = 20.
package bitlabel

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// MaxBits is the maximum number of bits a Label can hold. It bounds the
// maximum depth D of the partition tree this package can represent.
const MaxBits = 62

// Label is a node label of the space-partition tree. The zero value is the
// virtual root "#".
//
// Internally the bit string is stored as an unsigned integer whose most
// significant used bit is the first (root-edge) bit, together with the bit
// count. Labels are values; all operations return new Labels.
type Label struct {
	val uint64 // bit string interpreted as a big-endian integer
	n   uint8  // number of bits
}

// Root is the virtual-root label "#".
var Root = Label{}

// TreeRoot is the regular root label "#0", the single leaf of an empty tree.
var TreeRoot = Label{val: 0, n: 1}

var (
	// ErrBadLabel reports a malformed label string.
	ErrBadLabel = errors.New("bitlabel: malformed label")
	// ErrTooDeep reports a label exceeding MaxBits bits.
	ErrTooDeep = errors.New("bitlabel: label exceeds MaxBits bits")
)

// Parse converts a textual label such as "#0110" into a Label. The string
// must start with '#', continue with only '0' and '1' characters, and any
// first bit must be 0 (the virtual-root edge).
func Parse(s string) (Label, error) {
	if len(s) == 0 || s[0] != '#' {
		return Label{}, fmt.Errorf("%w: %q must start with '#'", ErrBadLabel, s)
	}
	body := s[1:]
	if len(body) > MaxBits {
		return Label{}, fmt.Errorf("%w: %q has %d bits", ErrTooDeep, s, len(body))
	}
	l := Label{}
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '0':
			l = l.Child(0)
		case '1':
			l = l.Child(1)
		default:
			return Label{}, fmt.Errorf("%w: %q contains %q", ErrBadLabel, s, body[i])
		}
	}
	if l.n > 0 && l.Bit(0) != 0 {
		return Label{}, fmt.Errorf("%w: %q first bit must be 0", ErrBadLabel, s)
	}
	return l, nil
}

// MustParse is Parse for tests and constants; it panics on error.
func MustParse(s string) Label {
	l, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return l
}

// String renders the label in the paper's notation, e.g. "#0100".
func (l Label) String() string {
	var b strings.Builder
	b.Grow(int(l.n) + 1)
	b.WriteByte('#')
	for i := 0; i < int(l.n); i++ {
		b.WriteByte('0' + byte(l.Bit(i)))
	}
	return b.String()
}

// Key returns the label's DHT-key form. It is the same as String; defined
// separately so call sites read as intent ("use as DHT key").
func (l Label) Key() string { return l.String() }

// IsKey reports whether key is the label's DHT key, l.Key() == key,
// without building the string.
func (l Label) IsKey(key string) bool {
	if len(key) != int(l.n)+1 || key[0] != '#' {
		return false
	}
	for i := 0; i < int(l.n); i++ {
		if key[i+1] != '0'+byte(l.Bit(i)) {
			return false
		}
	}
	return true
}

// Len returns the number of bits in the label. The virtual root has length
// 0 and the regular root "#0" has length 1. Note the paper measures label
// length in characters including '#'; that is Len()+1.
func (l Label) Len() int { return int(l.n) }

// IsRoot reports whether l is the virtual root "#".
func (l Label) IsRoot() bool { return l.n == 0 }

// Bit returns the i-th bit (0-indexed from the root edge) as 0 or 1.
// It panics if i is out of range: label bits are always iterated with
// bounds established by Len.
func (l Label) Bit(i int) int {
	if i < 0 || i >= int(l.n) {
		panic(fmt.Sprintf("bitlabel: Bit(%d) out of range for %s", i, l))
	}
	return int(l.val>>(uint(l.n)-1-uint(i))) & 1
}

// LastBit returns the final bit of the label. It panics on the virtual
// root, which has no bits.
func (l Label) LastBit() int {
	if l.n == 0 {
		panic("bitlabel: LastBit of virtual root")
	}
	return int(l.val & 1)
}

// Child appends one edge bit, producing the left (0) or right (1) child
// label. It panics if the label is already MaxBits deep or bit is not 0 or
// 1; depth must be validated by the caller (the index layers bound D).
func (l Label) Child(bit int) Label {
	if bit != 0 && bit != 1 {
		panic(fmt.Sprintf("bitlabel: Child(%d): bit must be 0 or 1", bit))
	}
	if l.n >= MaxBits {
		panic(fmt.Sprintf("bitlabel: Child would exceed MaxBits on %s", l))
	}
	return Label{val: l.val<<1 | uint64(bit), n: l.n + 1}
}

// Left returns the left-child label (append 0).
func (l Label) Left() Label { return l.Child(0) }

// Right returns the right-child label (append 1).
func (l Label) Right() Label { return l.Child(1) }

// Parent returns the label with the final bit removed. It panics on the
// virtual root.
func (l Label) Parent() Label {
	if l.n == 0 {
		panic("bitlabel: Parent of virtual root")
	}
	return Label{val: l.val >> 1, n: l.n - 1}
}

// Sibling returns the label with the final bit flipped. It panics on the
// virtual root and on the regular root "#0", which has no sibling.
func (l Label) Sibling() Label {
	if l.n <= 1 {
		panic(fmt.Sprintf("bitlabel: Sibling of %s", l))
	}
	return Label{val: l.val ^ 1, n: l.n}
}

// Prefix returns the first k bits of the label. It panics if k is out of
// range [0, Len()].
func (l Label) Prefix(k int) Label {
	if k < 0 || k > int(l.n) {
		panic(fmt.Sprintf("bitlabel: Prefix(%d) out of range for %s", k, l))
	}
	return Label{val: l.val >> (uint(l.n) - uint(k)), n: uint8(k)}
}

// IsPrefixOf reports whether l is a (non-strict) prefix of other, i.e.
// whether l is an ancestor of or equal to other in the tree.
func (l Label) IsPrefixOf(other Label) bool {
	if l.n > other.n {
		return false
	}
	return other.Prefix(int(l.n)) == l
}

// Equal reports whether two labels are identical.
func (l Label) Equal(other Label) bool { return l == other }

// trailingRun returns the length of the maximal run of identical bits at
// the end of the label. The virtual root has run 0.
func (l Label) trailingRun() int {
	if l.n == 0 {
		return 0
	}
	var run int
	if l.val&1 == 1 {
		run = bits.TrailingZeros64(^l.val)
	} else {
		v := l.val
		if v == 0 {
			return int(l.n) // all bits are 0
		}
		run = bits.TrailingZeros64(v)
	}
	if run > int(l.n) {
		run = int(l.n)
	}
	return run
}

// Name implements the naming function f_n of Definition 1: it strips the
// maximal trailing run of the label's last bit.
//
//	f_n(p011*) = p0,   f_n(p100*) = p1,   f_n(#00*) = #.
//
// For every leaf label the result is a distinct internal-node label
// (Theorem 1), which LHT uses as the leaf bucket's DHT key. Name panics on
// the virtual root, which is not a valid leaf label.
func (l Label) Name() Label {
	if l.n == 0 {
		panic("bitlabel: Name of virtual root")
	}
	return l.Prefix(int(l.n) - l.trailingRun())
}

// NextName implements the next-naming function f_nn of Definition 2 for a
// prefix x = l of the bit string mu. It returns the shortest prefix of mu
// that strictly extends l and ends with a bit different from l's last bit:
// the first prefix of mu past l that is mapped to a different name.
//
// ok is false when mu has no such bit (every bit of mu after l equals l's
// last bit), in which case the lookup binary search has exhausted the
// candidate space above l. NextName panics if l is not a proper prefix of
// mu or l is the virtual root.
func (l Label) NextName(mu Label) (next Label, ok bool) {
	if l.n == 0 {
		panic("bitlabel: NextName of virtual root")
	}
	if !l.IsPrefixOf(mu) || l.n == mu.n {
		panic(fmt.Sprintf("bitlabel: NextName: %s is not a proper prefix of %s", l, mu))
	}
	last := l.LastBit()
	for i := int(l.n); i < int(mu.n); i++ {
		if mu.Bit(i) != last {
			return mu.Prefix(i + 1), true
		}
	}
	return Label{}, false
}

// Names counts the distinct names f_n gives the prefixes of l whose
// lengths lie in [lo, hi]: the candidates Algorithm 2's binary search
// still has when its bounds are lo and hi. The prefixes of lengths k and
// k+1 share a name iff bit k repeats bit k-1, so the count is one plus
// the number of bit changes at positions lo through hi-1, read off l's
// bits with a shift, an XOR and a popcount. Names panics unless
// 1 <= lo <= hi <= Len().
func (l Label) Names(lo, hi int) int {
	if lo < 1 || lo > hi || hi > int(l.n) {
		panic(fmt.Sprintf("bitlabel: Names(%d, %d) out of range for %s", lo, hi, l))
	}
	changes := l.val ^ l.val>>1 // bit p set iff bits p and p+1 differ
	span := uint64(1)<<uint(hi-lo) - 1
	return 1 + bits.OnesCount64(changes>>(uint(l.n)-uint(hi))&span)
}

// RightNeighbor implements the right-neighbor function f_rn of Definition
// 3: the label of the nearest right branch node of l, obtained by
// stripping the trailing 1s and flipping the resulting final 0 to 1.
//
// ok is false when l lies on the rightmost path of the tree (l = #01*),
// where the paper maps f_rn(x) = x; callers treat that as "no branch to
// the right". RightNeighbor panics on the virtual root.
func (l Label) RightNeighbor() (branch Label, ok bool) {
	if l.n == 0 {
		panic("bitlabel: RightNeighbor of virtual root")
	}
	// Strip the trailing run of 1s (possibly empty).
	ones := bits.TrailingZeros64(^l.val)
	if ones >= int(l.n) {
		ones = int(l.n) // cannot happen for valid labels (first bit is 0)
	}
	rest := l.Prefix(int(l.n) - ones)
	if rest.n <= 1 {
		// l = #01*: already rightmost.
		return l, false
	}
	// rest ends with 0; flip it to 1.
	return Label{val: rest.val | 1, n: rest.n}, true
}

// LeftNeighbor implements the left-neighbor function f_ln of Definition 3:
// the label of the nearest left branch node of l, obtained by stripping
// the trailing 0s and flipping the resulting final 1 to 0.
//
// ok is false when l lies on the leftmost path of the tree (l = #00*).
// LeftNeighbor panics on the virtual root.
func (l Label) LeftNeighbor() (branch Label, ok bool) {
	if l.n == 0 {
		panic("bitlabel: LeftNeighbor of virtual root")
	}
	var zeros int
	if l.val == 0 {
		zeros = int(l.n)
	} else {
		zeros = bits.TrailingZeros64(l.val)
	}
	if zeros >= int(l.n)-1 {
		// l = #00*: already leftmost. (The first bit is always 0, so a
		// run of zeros reaching bit 1 means the whole label is zeros.)
		return l, false
	}
	rest := l.Prefix(int(l.n) - zeros)
	// rest ends with 1; flip it to 0.
	return Label{val: rest.val &^ 1, n: rest.n}, true
}

// LCA returns the lowest common ancestor of two labels: their longest
// common prefix.
func LCA(a, b Label) Label {
	n := int(a.n)
	if int(b.n) < n {
		n = int(b.n)
	}
	for i := 0; i < n; i++ {
		if a.Bit(i) != b.Bit(i) {
			return a.Prefix(i)
		}
	}
	return a.Prefix(n)
}

// Compare orders labels by the position of their subtree in the key space:
// -1 if a's subtree lies entirely left of b's, +1 if right, and 0 if one
// is an ancestor of the other (their intervals nest).
func Compare(a, b Label) int {
	n := int(a.n)
	if int(b.n) < n {
		n = int(b.n)
	}
	for i := 0; i < n; i++ {
		ab, bb := a.Bit(i), b.Bit(i)
		switch {
		case ab < bb:
			return -1
		case ab > bb:
			return 1
		}
	}
	return 0
}
