package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/record"
)

// FuzzDecodeFrame drives arbitrary bytes through the full server-side
// decode path: framing (readFrameBody), request parsing and service
// (applyFrame), and client-side response parsing. Truncated, oversized
// and garbage inputs must error or answer statusErr — never panic, and
// never allocate beyond the input's actual size (readFrameBody validates
// the length field before allocating; cursor.count bounds batch counts by
// the bytes that remain).
func FuzzDecodeFrame(f *testing.F) {
	// Well-formed frames of every op, so the corpus mutates from inside
	// the grammar, not just outside it.
	get := appendLenString(nil, "key")
	put := appendLenString(nil, "key")
	put = append(put, tagRaw)
	put = append(put, []byte("value")...)
	getBatch := binary.AppendUvarint(nil, 2)
	getBatch = appendLenString(getBatch, "a")
	getBatch = appendLenString(getBatch, "b")
	putBatch := binary.AppendUvarint(nil, 1)
	putBatch = appendLenString(putBatch, "a")
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
		// Malformed shapes.
		{},
		{0, 0, 0, 0},
		{0xff, 0xff, 0xff, 0xff, 1, 2, 3},
		buildFrame(9, 200, []byte("junk")),
		buildFrame(10, dht.OpGetBatch, binary.AppendUvarint(nil, 1<<60)),
		// In-place patches of the bucket: a mark, applied; a commit the
		// patcher refuses (nothing is marked).
		buildFrame(22, dht.OpPatchIf, patchIf("key", patchInPlace, 7, ilht.MarkSplitPatch())),
		buildFrame(23, dht.OpPatchIf, patchIf("key", patchInPlace, 7, ilht.CommitSplitPatch())),
	}
	// A hinted getbatch of the bucket, the raw value and an absent key; and
	// the same keys with a tail that is no hint, which is malformed.
	probed := binary.AppendUvarint(nil, 3)
	for _, k := range []string{"key", "raw", "absent"} {
		probed = appendLenString(probed, k)
	}
	seeds = append(seeds, buildFrame(24, dht.OpGetBatch, binary.BigEndian.AppendUint64(probed, ilht.RangeHint(0.704, 0.71))))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 9} {
		seeds = append(seeds, buildFrame(25, dht.OpGetBatch, append(probed, make([]byte, n)...)))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	stored, err := appendValue(nil, wideBucket())
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		// The length field must never drive an allocation larger than the
		// input itself (plus the bounded header), no matter what it claims.
		if len(raw) >= 4 {
			if n := binary.BigEndian.Uint32(raw[:4]); n <= maxFrameLen && int(n) > len(raw) {
				// Claimed length exceeds what will arrive: must error.
				if _, err := readFrameBody(bufio.NewReader(bytes.NewReader(raw)), nil); err == nil {
					t.Fatal("truncated frame decoded without error")
				}
				return
			}
		}
		body, err := readFrameBody(bufio.NewReader(bytes.NewReader(raw)), nil)
		if err != nil {
			return // framing rejected it; that is a valid outcome
		}
		if len(body) > maxFrameLen {
			t.Fatalf("frame body %d bytes exceeds the limit", len(body))
		}

		// Serve the request; garbage payloads must answer, not panic.
		s := NewServer()
		s.store["key"] = stored
		s.store["raw"] = []byte{tagRaw, 'v'}
		resp := s.applyFrame(body, nil)
		if len(resp) < frameHeaderLen+4+1 {
			t.Fatalf("response frame too short: %d bytes", len(resp))
		}
		if got, want := binary.BigEndian.Uint64(resp[4:12]), binary.BigEndian.Uint64(body[:8]); got != want {
			t.Fatalf("response id %d does not echo request id %d", got, want)
		}

		// The response must itself be a well-formed frame the client-side
		// parser accepts structurally.
		rbody, err := readFrameBody(bufio.NewReader(bytes.NewReader(resp)), nil)
		if err != nil {
			t.Fatalf("server emitted an unreadable frame: %v", err)
		}
		c := cursor{b: rbody[frameHeaderLen:]}
		status, err := c.u8()
		if err != nil {
			t.Fatalf("server emitted a status-less response: %v", err)
		}
		op := dht.OpKind(body[8])
		// Whatever the hint, a get of the stored bucket is answered with
		// the bucket, its header or one record of it — or, to a range
		// hint, with the run of its records in range, a type lht keeps
		// to itself.
		if op == dht.OpGet && status == statusOK {
			hc := cursor{b: body[frameHeaderLen:]}
			_, _ = hc.lenBytes()
			ranged := len(hc.b) == 8 && binary.BigEndian.Uint64(hc.b)&(1<<62) != 0
			switch v, err := decodeTagged(c.rest(), true); v.(type) {
			case *ilht.Bucket, *ilht.BucketHeader, *ilht.BucketRecord:
			default:
				if !ranged || err != nil || v == nil {
					t.Fatalf("get of the stored bucket answered with %T, %v", v, err)
				}
			}
		}

		// Whatever the patch, what it leaves stored is a bucket, what it
		// answers decodes, and only a tagWire value was ever patched.
		if op == dht.OpPatchIf {
			if v, err := decodeTaggedValue(s.store["key"]); err != nil {
				t.Fatalf("a patchif left %x stored: %v", s.store["key"], err)
			} else if _, ok := v.(*ilht.Bucket); !ok {
				t.Fatalf("a patchif left a %T stored", v)
			}
			if string(s.store["raw"]) != string([]byte{tagRaw, 'v'}) {
				t.Fatalf("a patchif rewrote a raw value to %x", s.store["raw"])
			}
			pc := cursor{b: body[frameHeaderLen:]}
			_, _ = pc.lenBytes()
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
			rc := cursor{b: body[frameHeaderLen:]}
			n, err := rc.count()
			for i := 0; i < n && err == nil; i++ {
				_, err = rc.lenBytes()
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
			cc := cursor{b: rbody[frameHeaderLen:]}
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
						if v, err := decodeTagged(p, hinted); err != nil || v == nil {
							t.Fatalf("batch slot %d decoded to %T, %v", i, v, err)
						}
					}
				}
			}
		}
	})
}
