package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/record"
)

// FuzzDecodeFrame drives arbitrary bytes through the full server-side
// decode path: framing (frameReader), request parsing and service
// (applyFrame), and client-side response parsing. Truncated, oversized
// and garbage inputs must error or answer statusErr — never panic, and
// never allocate beyond the input's actual size (frameReader checks the
// header's varints before it takes a buffer; cursor.count bounds batch
// counts by the bytes that remain).
func FuzzDecodeFrame(f *testing.F) {
	// Well-formed frames of every op, so the corpus mutates from inside
	// the grammar, not just outside it.
	// name is the stored bucket's name, a key that travels packed.
	name := wideBucket().Label.Name().Key()
	padded := appendKey(nil, name)
	padded[len(padded)-1] |= 1
	get := appendKey(nil, "key")
	put := appendKey(nil, "key")
	put = append(put, tagRaw)
	put = append(put, []byte("value")...)
	getBatch := binary.AppendUvarint(nil, 2)
	getBatch = appendKey(getBatch, "a")
	getBatch = appendKey(getBatch, "b")
	putBatch := binary.AppendUvarint(nil, 1)
	putBatch = appendKey(putBatch, "a")
	putBatch = appendLenBytes(putBatch, []byte{tagRaw, 'v'})
	seeds := [][]byte{
		buildFrame(1, dht.OpPing, nil),
		buildFrame(2, dht.OpGet, get),
		buildFrame(3, dht.OpPut, put),
		buildFrame(4, dht.OpTake, get),
		buildFrame(5, dht.OpRemove, get),
		buildFrame(6, dht.OpWrite, put),
		buildFrame(7, dht.OpGetBatch, getBatch),
		buildFrame(8, dht.OpPutBatch, putBatch),
		// Probes: a get with the eight-byte hint, and the same tail where
		// it does not belong.
		buildFrame(11, dht.OpGet, hintedGet("key", 0.25)),
		buildFrame(12, dht.OpGet, hintedGet("", math.NaN())),
		buildFrame(13, dht.OpTake, hintedGet("key", 0.25)),
		// Record-only probes of the bucket the fuzzed server holds: a
		// present key, a covered absent one, an excluded one.
		buildFrame(14, dht.OpGet, recordGet("key", 0.703125)),
		buildFrame(15, dht.OpGet, recordGet("key", 0.7101)),
		buildFrame(16, dht.OpGet, recordGet("key", 0.25)),
		// Patches of that bucket (epoch 7, 75 records at depth 7): the
		// serializer's, riding a probe, and a holder's, applied, the first
		// answered with the new bucket, another with a labelled ack; a
		// holder's the patcher refuses; and the serializer's answered as
		// the probe it rode — a key the leaf excludes (a header), a stored
		// form no patcher can look into (raw), a new key one past the
		// weight bound (the bucket whole).
		buildFrame(17, dht.OpPatchIf, probePatch("key", ilht.ProbeHint(0.7101, false), ilht.UpsertPatch(record.Record{Key: 0.7101, Value: []byte("v")}, 77, 20))),
		buildFrame(18, dht.OpPatchIf, patchIf("key", patchNewer, 7, ilht.DeletePatch(0.703125, 0))),
		buildFrame(19, dht.OpPatchIf, probePatch("key", ilht.ProbeHint(0.703125, true), ilht.WantLabel(ilht.DeletePatch(0.703125, 0)))),
		buildFrame(20, dht.OpPatchIf, patchIf("key", patchNewer, 7, ilht.DeletePatch(0.25, 0))),
		buildFrame(21, dht.OpPatchIf, probePatch("raw", ilht.ProbeHint(0.25, false), ilht.DeletePatch(0.25, 0))),
		buildFrame(26, dht.OpPatchIf, probePatch("key", ilht.ProbeHint(0.25, false), ilht.UpsertPatch(record.Record{Key: 0.25}, 77, 20))),
		buildFrame(27, dht.OpPatchIf, probePatch("key", ilht.ProbeHint(0.7186, false), ilht.UpsertPatch(record.Record{Key: 0.7186}, 69, 20))),
		// Malformed shapes: no frame, a five-byte length, a length over
		// maxFrameLen, an id varint that runs past the frame's end, a body
		// with room for no op, and one with room for a one-byte id alone.
		{},
		{0x80, 0x80, 0x80, 0x80, 1, 1, 6},
		append(binary.AppendUvarint(nil, maxFrameLen+1), 1, 6),
		{3, 0x80, 0x80, 0x80, 0x80, 1, 6},
		{1, 1, 6},
		{2, 0x81, 1, 6},
		buildFrame(9, 200, []byte("junk")),
		buildFrame(10, dht.OpGetBatch, binary.AppendUvarint(nil, 1<<60)),
		// In-place patches of the bucket: a mark, applied; a commit the
		// patcher refuses (nothing is marked).
		buildFrame(22, dht.OpPatchIf, patchIf("key", patchInPlace, 7, ilht.MarkSplitPatch())),
		buildFrame(23, dht.OpPatchIf, patchIf("key", patchInPlace, 7, ilht.CommitSplitPatch())),
		// The bucket under its own name, a packed key: a get, a record
		// probe, a patch riding one, and the name with a pad bit set, which
		// is malformed.
		buildFrame(28, dht.OpGet, appendKey(nil, name)),
		buildFrame(29, dht.OpGet, recordGet(name, 0.703125)),
		buildFrame(30, dht.OpPatchIf, probePatch(name, ilht.ProbeHint(0.7101, false), ilht.UpsertPatch(record.Record{Key: 0.7101, Value: []byte("v")}, 77, 20))),
		buildFrame(31, dht.OpGet, padded),
	}
	// A hinted getbatch of the bucket, the raw value and an absent key; and
	// the same keys with a tail that is no hint, which is malformed.
	probed := binary.AppendUvarint(nil, 3)
	for _, k := range []string{"key", "raw", "absent", name, "#" + keyBits} {
		probed = appendKey(probed, k)
	}
	seeds = append(seeds, buildFrame(24, dht.OpGetBatch, binary.BigEndian.AppendUint64(probed, ilht.RangeHint(0.704, 0.71))))
	seeds = append(seeds, buildFrame(32, dht.OpGetBatch, binary.BigEndian.AppendUint64(probed, ilht.ProbeHint(0.703125, true))))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 9} {
		seeds = append(seeds, buildFrame(25, dht.OpGetBatch, append(probed, make([]byte, n)...)))
	}
	// Gets of the raw value, plain and hinted: answered as stored.
	seeds = append(seeds, buildFrame(33, dht.OpGet, appendKey(nil, "raw")), buildFrame(34, dht.OpGet, hintedGet("raw", 0.25)))
	for _, s := range seeds {
		f.Add(s)
	}
	wide := wideBucket()
	stored, err := appendValue(nil, wide)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		// The length field must never drive an allocation larger than the
		// input itself, no matter what it claims.
		if n, k := binary.Uvarint(raw); k > 0 && k <= lenReserve && n <= maxFrameLen && int(n) > len(raw)-k {
			// Claimed length exceeds what will arrive: must error.
			if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(raw))); err == nil {
				t.Fatal("truncated frame decoded without error")
			}
			return
		}
		fr := frameReader{br: bufio.NewReader(bytes.NewReader(raw))}
		id, bp, err := fr.next()
		if err != nil {
			// Framing rejected it, a valid outcome; a header it refused
			// took no buffer.
			if !errors.Is(err, io.ErrUnexpectedEOF) && fr.body != nil {
				t.Fatalf("a refused header (%v) took a buffer", err)
			}
			return
		}
		body := *bp
		if len(body) > maxFrameLen {
			t.Fatalf("frame body %d bytes exceeds the limit", len(body))
		}

		// Serve the request; garbage payloads must answer, not panic.
		s := NewServer()
		plantValue(s, "key", stored)
		plantValue(s, name, stored)
		plantValue(s, "raw", []byte{tagRaw, 'v'})
		out, off := s.applyFrame(id, body, nil)
		resp := out[off:]

		// The response must itself be one well-formed frame the client-side
		// reader accepts, echoing the request's id bytes.
		rr := frameReader{br: bufio.NewReader(bytes.NewReader(resp))}
		rid, rbp, err := rr.next()
		if err != nil {
			t.Fatalf("server emitted an unreadable frame: %v", err)
		}
		if !bytes.Equal(rid, id) {
			t.Fatalf("response id % x does not echo request id % x", rid, id)
		}
		if n := rr.br.Buffered(); n != 0 {
			t.Fatalf("%d bytes past the response frame", n)
		}
		rbody := *rbp
		c := cursor{b: rbody}
		status, err := c.u8()
		if err != nil {
			t.Fatalf("server emitted a status-less response: %v", err)
		}
		op := dht.OpKind(body[0])
		// Whatever the hint, a get of the stored bucket is answered with
		// the bucket, its header or one record of it — or, to a range
		// hint, with the run of its records in range, a type lht keeps
		// to itself — and a get of the raw value with its bytes. A hinted
		// get's reply never carries the stored epoch prefix; a plain
		// get's is the stored bytes, prefix and all.
		if op == dht.OpGet && status == statusOK {
			hc := cursor{b: body[1:]}
			key, _ := hc.key(new(keyScratch))
			ranged := len(hc.b) == 8 && binary.BigEndian.Uint64(hc.b)&(1<<62) != 0
			if len(hc.b) == 8 && len(c.b) > 0 && c.b[0] == tagEpoch {
				t.Fatalf("a probe was answered with the stored epoch prefix: %x", c.b)
			}
			if len(hc.b) == 0 && !bytes.Equal(c.b, storedValue(s, string(key))) {
				t.Fatalf("a plain get of %q was answered with %x, not the stored bytes", key, c.b)
			}
			switch v, err := decodeTagged(c.rest(), true); v := v.(type) {
			case *ilht.BucketRecord:
				// A found record's value runs to the reply's end: it is
				// the stored record's with the hinted key, whole.
				delta := math.Float64frombits(binary.BigEndian.Uint64(hc.b) &^ (1 << 63))
				if i := record.FindByKey(wide.Records, delta); v.Found && (i < 0 || !bytes.Equal(v.Record.Value, wide.Records[i].Value)) {
					t.Fatalf("a record probe for %v was answered with the value %x", delta, v.Record.Value)
				}
			case *ilht.Bucket, *ilht.BucketHeader:
			case []byte:
				if string(key) != "raw" {
					t.Fatalf("get of %q answered with raw bytes %x", key, v)
				}
			default:
				if !ranged || err != nil || v == nil {
					t.Fatalf("get of the stored bucket answered with %T, %v", v, err)
				}
			}
		}

		// Whatever the patch, what it leaves stored is a bucket, what it
		// answers decodes, and only a tagWire value was ever patched.
		if op == dht.OpPatchIf {
			for _, k := range []string{"key", name} {
				if v, err := decodeTaggedValue(storedValue(s, k)); err != nil {
					t.Fatalf("a patchif left %x stored: %v", storedValue(s, k), err)
				} else if _, ok := v.(*ilht.Bucket); !ok {
					t.Fatalf("a patchif left a %T stored", v)
				}
			}
			if string(storedValue(s, "raw")) != string([]byte{tagRaw, 'v'}) {
				t.Fatalf("a patchif rewrote a raw value to %x", storedValue(s, "raw"))
			}
			pc := cursor{b: body[1:]}
			_, _ = pc.key(new(keyScratch))
			probe := len(pc.b) > 0 && pc.b[0] == patchProbe
			reply := c.rest()
			if status == statusOK && probe {
				rc := cursor{b: reply}
				if _, err := rc.uvarint(); err != nil {
					t.Fatalf("an applied probe-mode patch answered no epoch: %x", reply)
				}
				reply = rc.b
			}
			if status == statusOK && len(reply) > 0 {
				switch v, err := dht.DecodePatchReply(reply[0], reply[1:]); v.(type) {
				case *ilht.Bucket, ilht.PatchAck, *ilht.LeafAck, *ilht.Cut:
				default:
					t.Fatalf("patchif answered with %T, %v", v, err)
				}
			}
			// Not applied, a probe-mode patch is answered as its probe: the
			// bucket, a short form of it, or the raw value.
			if status == statusPatchRefused && probe {
				if len(reply) > 0 && reply[0] == tagEpoch {
					t.Fatalf("a refused probe-mode patch was answered with the stored epoch prefix: %x", reply)
				}
				ranged := len(pc.b) >= 9 && binary.BigEndian.Uint64(pc.b[1:9])&(1<<62) != 0
				switch v, err := decodeTagged(reply, true); v.(type) {
				case *ilht.Bucket, *ilht.BucketHeader, *ilht.BucketRecord, []byte:
				default:
					if !ranged || err != nil || v == nil {
						t.Fatalf("a refused probe-mode patch answered with %T, %v", v, err)
					}
				}
			}
		}

		// A getbatch is its keys and nothing more, or one hint more; a slot
		// of the reply decodes as the reply to a get with that tail would.
		hinted := false
		if op == dht.OpGetBatch {
			rc := cursor{b: body[1:]}
			n, err := rc.count()
			for i := 0; i < n && err == nil; i++ {
				_, err = rc.key(new(keyScratch))
			}
			if err == nil && len(rc.b) != 0 && len(rc.b) != 8 && status != statusErr {
				t.Fatalf("a getbatch with %d bytes after its keys was answered with status %d", len(rc.b), status)
			}
			hinted = len(rc.b) == 8
		}

		// And the mirrored payload parses under the batch slot grammar
		// when it claims to be a batch response (client symmetry: these
		// parsers also must not panic on anything the fuzzer reaches).
		if op == dht.OpGetBatch || op == dht.OpPutBatch {
			cc := cursor{b: rbody}
			if st, _ := cc.u8(); st == statusOK {
				n, err := cc.count()
				if err != nil {
					t.Fatalf("batch response count: %v", err)
				}
				for i := 0; i < n; i++ {
					st, err := cc.u8()
					if err != nil {
						t.Fatalf("batch slot %d status: %v", i, err)
					}
					if st == statusNotFound {
						continue
					}
					p, err := cc.lenBytes()
					if err != nil {
						t.Fatalf("batch slot %d payload: %v", i, err)
					}
					if op == dht.OpGetBatch {
						if hinted && len(p) > 0 && p[0] == tagEpoch {
							t.Fatalf("batch slot %d of a hinted getbatch carries the stored epoch prefix: %x", i, p)
						}
						if v, err := decodeTagged(p, hinted); err != nil || v == nil {
							t.Fatalf("batch slot %d decoded to %T, %v", i, v, err)
						}
					}
				}
			}
		}
	})
}
