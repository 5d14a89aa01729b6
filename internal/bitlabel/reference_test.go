package bitlabel

import (
	"math/rand"
	"strings"
)

// This file holds a deliberately naive string-based reference
// implementation of the label algebra, transcribed directly from the
// paper's regular-expression definitions. The packed implementation is
// property-tested against it.

// refName is f_n (Definition 1) on a textual label like "#0110": truncate
// the maximal trailing run of the last character.
func refName(s string) string {
	body := s[1:]
	if len(body) == 0 {
		panic("refName of virtual root")
	}
	last := body[len(body)-1]
	i := len(body)
	for i > 0 && body[i-1] == last {
		i--
	}
	return "#" + body[:i]
}

// refNextName is f_nn (Definition 2): the shortest prefix of mu extending
// x that ends with a bit different from x's last bit.
func refNextName(x, mu string) (string, bool) {
	if !strings.HasPrefix(mu, x) || len(x) == len(mu) {
		panic("refNextName: x must be a proper prefix of mu")
	}
	last := x[len(x)-1]
	for i := len(x); i < len(mu); i++ {
		if mu[i] != last {
			return mu[:i+1], true
		}
	}
	return "", false
}

// refRightNeighbor is f_rn (Definition 3): for x = p01*, p != "#", the
// nearest right branch is p1; for x = #01* it is x itself (rightmost).
func refRightNeighbor(s string) (string, bool) {
	body := s[1:]
	i := len(body)
	for i > 0 && body[i-1] == '1' {
		i--
	}
	// body[:i] ends with '0' (or is empty).
	if i <= 1 {
		return s, false // x = #01*: no branch to the right
	}
	return "#" + body[:i-1] + "1", true
}

// refLeftNeighbor is f_ln: for x = p10* the nearest left branch is p0; for
// x = #00* it is x itself (leftmost).
func refLeftNeighbor(s string) (string, bool) {
	body := s[1:]
	i := len(body)
	for i > 0 && body[i-1] == '0' {
		i--
	}
	if i <= 1 {
		return s, false // x = #00*
	}
	return "#" + body[:i-1] + "0", true
}

// refLCA is the longest common prefix.
func refLCA(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 1 // both start with '#'
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i]
}

// randLabelString generates a random valid label with 1..maxBits bits.
func randLabelString(rng *rand.Rand, maxBits int) string {
	n := 1 + rng.Intn(maxBits)
	var b strings.Builder
	b.WriteString("#0")
	for i := 1; i < n; i++ {
		b.WriteByte('0' + byte(rng.Intn(2)))
	}
	return b.String()
}

// refNames counts the distinct names among the prefixes of l with lengths
// lo through hi by collecting them, one Name call a prefix.
func refNames(l Label, lo, hi int) int {
	names := map[Label]bool{}
	for k := lo; k <= hi; k++ {
		names[l.Prefix(k).Name()] = true
	}
	return len(names)
}
