package bitlabel

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Generate implements quick.Generator so testing/quick can draw random
// valid labels.
func (Label) Generate(rng *rand.Rand, size int) reflect.Value {
	maxBits := size
	if maxBits < 1 {
		maxBits = 1
	}
	if maxBits > MaxBits {
		maxBits = MaxBits
	}
	n := 1 + rng.Intn(maxBits)
	l := TreeRoot
	for i := 1; i < n; i++ {
		l = l.Child(rng.Intn(2))
	}
	return reflect.ValueOf(l)
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(99))}
}

// Property: f_n strictly shortens every leaf label and yields a proper
// prefix (a strict ancestor), as Theorem 1's proof requires.
func TestQuickNameIsProperAncestor(t *testing.T) {
	prop := func(l Label) bool {
		name := l.Name()
		return name.Len() < l.Len() && name.IsPrefixOf(l)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property (Theorem 2): after splitting any leaf, exactly one child keeps
// the parent's name and the other is named by the parent's own label.
func TestQuickSplitNaming(t *testing.T) {
	prop := func(l Label) bool {
		if l.Len() >= MaxBits {
			return true
		}
		ln, rn := l.Left().Name(), l.Right().Name()
		if l.LastBit() == 1 {
			// lambda = p011*: left child named lambda, right keeps f_n.
			return ln == l && rn == l.Name()
		}
		return rn == l && ln == l.Name()
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: the name of a label is invariant along its trailing run -
// every prefix between f_n(x) and x has the same name (the fact the
// lookup binary search exploits to skip candidates).
func TestQuickNameInvariantAlongRun(t *testing.T) {
	prop := func(l Label) bool {
		name := l.Name()
		for k := name.Len() + 1; k <= l.Len(); k++ {
			if l.Prefix(k).Name() != name {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: NextName yields a proper prefix of mu, strictly longer than x,
// with a different name.
func TestQuickNextName(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(l Label) bool {
		mu := l
		for mu.Len() < MaxBits && rng.Intn(3) != 0 {
			mu = mu.Child(rng.Intn(2))
		}
		if mu.Len() == l.Len() {
			return true
		}
		next, ok := l.NextName(mu)
		if !ok {
			// Exhausted: every remaining bit equals l's last bit.
			for i := l.Len(); i < mu.Len(); i++ {
				if mu.Bit(i) != l.LastBit() {
					return false
				}
			}
			return true
		}
		return next.Len() > l.Len() && next.IsPrefixOf(mu) && next.Name() != l.Name()
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: RightNeighbor produces the label of the nearest branch whose
// subtree lies immediately to the right: Compare orders them, and its
// parent is an ancestor of the argument.
func TestQuickRightNeighborGeometry(t *testing.T) {
	prop := func(l Label) bool {
		b, ok := l.RightNeighbor()
		if !ok {
			return b == l
		}
		return Compare(l, b) < 0 && b.Parent().IsPrefixOf(l)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickLeftNeighborGeometry(t *testing.T) {
	prop := func(l Label) bool {
		b, ok := l.LeftNeighbor()
		if !ok {
			return b == l
		}
		return Compare(b, l) < 0 && b.Parent().IsPrefixOf(l)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: LCA is the longest label that is a prefix of both arguments.
func TestQuickLCA(t *testing.T) {
	prop := func(a, b Label) bool {
		l := LCA(a, b)
		if !l.IsPrefixOf(a) || !l.IsPrefixOf(b) {
			return false
		}
		if l.Len() < a.Len() && l.Len() < b.Len() {
			// One step deeper must disagree.
			return a.Bit(l.Len()) != b.Bit(l.Len())
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: binary encoding round-trips.
func TestQuickBinaryRoundTrip(t *testing.T) {
	prop := func(l Label) bool {
		data, err := l.MarshalBinary()
		if err != nil {
			return false
		}
		var got Label
		return got.UnmarshalBinary(data) == nil && got == l
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: the DHT key of every probe Algorithm 2 makes for mu is a
// prefix of mu's own key, mu.Prefix(n).Name().Key() ==
// mu.Key()[:mu.Prefix(n).Name().Len()+1] for every n in [1, len mu], so
// a lookup can cut all its probe keys from one string. mu takes up to
// MaxBits bits; n = 1 names the root "#" every time.
func TestQuickProbeKeyIsPrefixOfMuKey(t *testing.T) {
	prop := func(raw uint64, length uint8) bool {
		mu := TreeRoot
		for i := 1; i < 1+int(length)%MaxBits; i++ {
			mu = mu.Child(int(raw >> (i - 1) & 1))
		}
		muKey := mu.Key()
		for n := 1; n <= mu.Len(); n++ {
			name := mu.Prefix(n).Name()
			if name.Key() != muKey[:name.Len()+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}
