//go:build !race

package tcpnet

import (
	"path/filepath"
	"testing"

	"lht/internal/dht"
	ilht "lht/internal/lht"
)

// TestAppliedWritesReuseTheStoredKey pins what a node allocates to apply
// a write to a key it already stores: the copy of a whole value and
// nothing else, and nothing at all for a patch, in every mode. The key is
// stored under the string the store already has, which is what a node
// that loaded its store from a snapshot reuses too. Only a key the node
// does not hold costs its string: a createif allocates the key and the
// value. The keys are leaf names: Go interns one-byte strings, so a
// one-byte key would hide the key's allocation.
func TestAppliedWritesReuseTheStoredKey(t *testing.T) {
	b := wideBucket() // epoch 7
	key := b.Label.Name().Key()
	created := b.Label.Left().Name().Key()
	if len(key) < 2 || len(created) < 2 || key == created {
		t.Fatalf("keys %q and %q", key, created)
	}
	rec := extraRecord(0)
	hint := ilht.ProbeHint(rec.Key, false)
	run := func(srv *Server, when string) {
		t.Helper()
		// The value srv stores under key now, at its epoch, and a patch
		// that flips rec in or out of it.
		current := func() (val []byte, epoch uint64) {
			epoch = storedEpoch(storedValue(srv, key))
			nb := b.Clone()
			nb.Epoch = epoch
			return mustAppendValue(t, nb), epoch
		}
		flips := 0
		flip := func() []byte {
			if flips++; flips%2 == 1 {
				return ilht.UpsertPatch(rec, 0, 20)
			}
			return ilht.DeletePatch(rec.Key, 0)
		}
		writes := []struct {
			name    string
			op      dht.OpKind
			payload func() []byte // built before each call, not measured
			want    float64
		}{
			{"put", dht.OpPut, func() []byte { v, _ := current(); return append(appendKey(nil, key), v...) }, 1},
			{"putnewer", dht.OpPutNewer, func() []byte { v, _ := current(); return append(appendKey(nil, key), v...) }, 1},
			{"write", dht.OpWrite, func() []byte { v, _ := current(); return append(appendKey(nil, key), v...) }, 1},
			{"putif", dht.OpPutIf, func() []byte {
				v, e := current()
				return append(appendUv(appendKey(nil, key), e), v...)
			}, 1},
			{"writeif", dht.OpWriteIf, func() []byte {
				v, e := current()
				return append(appendUv(appendKey(nil, key), e), v...)
			}, 1},
			{"putbatch", dht.OpPutBatch, func() []byte {
				v, _ := current()
				return appendLenBytes(appendKey(appendUv(nil, 1), key), v)
			}, 1},
			{"patchif probe", dht.OpPatchIf, func() []byte { return probePatch(key, hint, flip()) }, 0},
			{"patchif newer", dht.OpPatchIf, func() []byte {
				_, e := current()
				return patchIf(key, patchNewer, e, flip())
			}, 0},
			{"patchif in place", dht.OpPatchIf, func() []byte {
				_, e := current()
				return patchIf(key, patchInPlace, e, flip())
			}, 0},
			{"createif", dht.OpCreateIf, func() []byte {
				delete(srv.store, created)
				return append(appendKey(nil, created), mustAppendValue(t, b)...)
			}, 2},
		}
		out := make([]byte, 0, 256)
		for _, w := range writes {
			var req []byte
			setup := func() { req = buildFrame(1, w.op, w.payload()) }
			n := allocsPerRun(200, setup, func() {
				if resp := replyBody(serve(srv, req, &out)); resp[0] != statusOK {
					t.Fatalf("%s: %s answered % x", when, w.name, resp)
				}
			})
			if n != w.want {
				t.Errorf("%s: %s allocates %v per call, want %v", when, w.name, n, w.want)
			}
		}
		if storedEpoch(storedValue(srv, key)) == b.Epoch {
			t.Errorf("%s: the patches moved no epoch: were they applied?", when)
		}
	}

	srv := NewServer()
	plantValue(srv, key, mustAppendValue(t, b))
	run(srv, "stored")

	path := filepath.Join(t.TempDir(), "node.snap")
	if err := srv.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	loaded := NewServer()
	if err := loaded.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	run(loaded, "loaded")
}
