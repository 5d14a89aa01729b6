// Package lht implements the LHT index engine: the paper's core
// contribution (sections 3-7). It materializes the space-partition tree as
// leaf buckets named onto a generic DHT by the naming function, and
// implements lookup (Algorithm 2), insertion with incremental tree growth
// (Algorithm 1), deletion with the dual merge, range queries (Algorithms
// 3-4) and min/max queries (Theorem 3).
//
// The engine is a client of the dht.DHT substrate interface and keeps no
// state of its own beyond configuration and maintenance statistics, which
// is exactly the over-DHT property the paper argues for: the DHT handles
// peer membership, routing and robustness; LHT pays maintenance only for
// tree structure adjustment.
package lht

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/record"
)

// Bucket is a leaf bucket (section 3.3): the atomic unit LHT maps into the
// DHT. It consists of the leaf label, from which the peer reconstructs the
// local tree, and the record store.
//
// The bucket's DHT key is Label.Name().Key() (the naming function); the
// label itself is carried inside the bucket so queries can rebuild the
// local tree and range forwarding can verify what it fetched.
type Bucket struct {
	// Label is the leaf's label in the partition tree.
	Label bitlabel.Label
	// Records are the stored data records, in no particular order.
	Records []record.Record
	// Epoch is a per-bucket version, bumped on every mutation the index
	// performs (record write-backs, splits, merges; children continue
	// their parent's count). Recovery uses it to order two overlapping
	// buckets: the higher epoch is the live structure, the lower a stale
	// remnant of a torn mutation or resurrected replica.
	Epoch uint64
	// Pending is the write-ahead intent of an in-flight structural
	// mutation (split or merge). It is recorded in the surviving bucket
	// before the multi-step rewrite begins and cleared by the final step,
	// so every intermediate state of a crashed mutation is detectable
	// from the bucket alone; see Index.Scrub and the lookup read-repair.
	Pending Pending
}

// PendingKind enumerates the structural mutations that leave a
// write-ahead intent in a bucket.
type PendingKind uint8

const (
	// PendingNone marks a bucket with no mutation in flight.
	PendingNone PendingKind = iota
	// PendingSplit marks a leaf about to split (Algorithm 1): the
	// partition is deterministic from the bucket itself, so the intent
	// needs no extra data. Until cleared, the remote half may or may not
	// yet exist under the leaf's own label key.
	PendingSplit
	// PendingMerge marks a merged bucket whose obsolete child has not yet
	// been removed from the DHT.
	PendingMerge
)

// Pending is a bucket's write-ahead intent. The zero value means no
// mutation is in flight.
type Pending struct {
	// Kind says which mutation was started.
	Kind PendingKind
	// RemoveKey, for merges, is the DHT key of the obsolete child bucket
	// to delete once the merged bucket is durable.
	RemoveKey string
	// PeerEpoch, for merges, is the epoch the obsolete child had when the
	// merge began. Recovery rolls the merge forward only if the child is
	// unchanged; a newer epoch means another client wrote to it after the
	// crash, so the merge is rolled back instead.
	PeerEpoch uint64
}

// Torn reports whether the bucket carries an uncleared mutation intent,
// i.e. a writer crashed between the intent and the final write.
func (b *Bucket) Torn() bool { return b.Pending.Kind != PendingNone }

// DHTEpoch implements dht.Epocher: conditional substrate writes compare
// the stored bucket's epoch against the writer's expectation, which is
// what serializes concurrent index mutations of one bucket.
func (b *Bucket) DHTEpoch() uint64 { return b.Epoch }

// Weight is the storage occupancy of the bucket: the record count plus one
// slot for the leaf label (section 9.2 notes the label occupies one record
// slot, which is what shifts the average alpha to 1/2 + 1/(2*theta)).
func (b *Bucket) Weight() int { return len(b.Records) + 1 }

// Interval returns the dyadic key interval this leaf covers.
func (b *Bucket) Interval() keyspace.Interval { return keyspace.IntervalOf(b.Label) }

// Contains reports whether the bucket's interval covers the data key.
func (b *Bucket) Contains(delta float64) bool { return b.Interval().Contains(delta) }

// Clone returns a copy of the bucket that shares no mutable state with
// it: the record slice is fresh, the record values, which are read-only,
// are shared. The slice has room for one more record, so the insert
// path's clone-then-append does not reallocate it.
func (b *Bucket) Clone() *Bucket {
	out := *b
	if b.Records != nil {
		out.Records = make([]record.Record, len(b.Records), len(b.Records)+1)
		copy(out.Records, b.Records)
	}
	return &out
}

// String summarizes the bucket for logs and test failures.
func (b *Bucket) String() string {
	return fmt.Sprintf("bucket(%s, %d records)", b.Label, len(b.Records))
}

// Bucket wire format 3, the one serialized form of a bucket: what
// EncodeBucket returns and what a network substrate ships and stores
// (Bucket is a dht.WireValue). uv is a shortest-form unsigned varint.
//
//	version u8 = 3
//	uv epoch
//	label        bit count n u8, then the n bits in ceil(n/8) bytes, pad
//	             bits zero (bitlabel binary form): 4 B at depth 20
//	pending      kind u8; for a kind other than 0 (a torn leaf) then
//	             uv n + n-byte remove-key, uv peer epoch
//	record list  uv count, count x (key u64 BE, uv vlen, value)
//
// The layout is canonical: a byte string decodes to at most one bucket
// and that bucket encodes back to the same bytes. Any other version byte,
// 1 and 2 included, is no bucket to the decoder, projector or patcher.
// So an untorn header ends at its pending-kind byte; an untorn leaf's
// Pending is the zero value, whatever the struct held, once it crossed.
//
// Everything before the record list is the header. It is a stable,
// self-delimiting prefix: parseBucketHeader finds its end from its own
// bytes, and because a record list is never empty on the wire (zero
// records still write their count) a header alone is never a bucket and
// a bucket never a header.
//
// Probe replies. A storing peer answers a probe (a hinted get or a slot of
// a hinted multi-get, see ProbeHint and RangeHint) of a stored bucket with
// one of five forms, built from the stored bytes, undecoded, by
// projectBucket:
//
//	whole    the stored bytes: the bucket is torn or does not parse, or
//	         it covers the hinted key and the prober wants the bucket
//	header   an untorn leaf that does not cover the hinted key, or does
//	         not overlap the hinted range:
//	           marker u8 = 0xFB, label (bitlabel binary form)
//	record   an untorn leaf that covers the hinted key and holds a record
//	         with it, for a prober that wants the record alone:
//	           marker u8 = 0xFF, label, then the record's value, to the
//	           reply's end (the key is the hinted one, bit for bit: a
//	           record whose key is stored as -0, which a hint reads as +0,
//	           goes out in the whole bucket instead)
//	absent   the same leaf when it holds no record with the hinted key:
//	           marker u8 = 0xFA, label
//	run      an untorn leaf that overlaps the hinted range:
//	           marker u8 = 0xFD, label, then the packed run
//	           (record.AppendRun) of the stored records whose keys fall in
//	           the hinted range, in stored order: each key as the offset
//	           of its bit pattern in the leaf's interval's, in the bits
//	           the widest offset needs (keyBits), and one length for
//	           values that all have it. A leaf holding a record in the
//	           range whose key lies outside its interval's bits, such as
//	           one stored as -0, goes out whole instead
//
// A short form names the leaf by its label and drops the rest of the
// header: a prober reads no version, epoch or intent off a leaf it did not
// get whole, and a short form is only ever sent for an untorn leaf. No
// marker is a wire version, so the five are told apart by their first
// byte (decodeProbeReply), and DecodeBucket accepts only the first.
//
// Patches. A write that changes one record of an untorn leaf ships the
// change, not the leaf (UpsertPatch, DeletePatch), and the storing peer
// builds the new stored bytes from the old, undecoded, with patchBucket:
//
//	op u8        1 = upsert, 2 = delete; bit 7 set (WantLabel) asks for
//	             the leaf's label in the ack
//	uv whole     the weight (record count + 1) at which the writer needs
//	             the new bucket back: an upsert's new weight >= whole, a
//	             delete's new weight < whole; 0 = never
//	upsert       uv depth (the tree's depth bound D), then key u64 BE,
//	             uv vlen, value: one record, to the patch's end
//	delete       key u64 BE
//
// and answers with one of three forms, told apart by decodePatchReply:
//
//	ack      marker u8 = 0xFE (never a wire version), uv new record count,
//	         and when asked for, the leaf's label (bitlabel binary form)
//	split    an upsert crossed whole at a leaf shallower than depth, whose
//	         local half (splitHalves) keeps n > 0 records: marker u8 = 0xFC,
//	         the new header verbatim, uv n, and the record list of the
//	         remote half in stored order — what the split moves (Theorem 2)
//	whole    the new stored bytes: the weight crossed the patch's whole
//
// No epoch guards a patch (dht.Patcher's Patch), so the patcher is the
// whole guard of the write: it refuses every leaf the write was not meant
// for — torn, not covering the key, a record to delete that is not there —
// and the peer answers the probe the patch rode instead. It also refuses
// an upsert of a key the leaf does not hold once the leaf weighs
// whole + len(label) or more and is shallower than depth: that record
// would take the leaf past the weight bound (Index.overweight), so the
// writer, answered with the bucket whole, splits it first.
//
// The steps a split or merge takes on the peer that keeps its bucket —
// free, in-place rewrites (dht.Patcher's WritePatchIf) — are patches too,
// the op byte alone (MarkSplitPatch, CommitSplitPatch, ClearMergePatch).
// Each writes what AppendWire writes for the bucket the index's step
// builds from the stored one, and is acknowledged with the new record
// count:
//
//	3 mark split    an untorn leaf: the epoch one up, Pending{Split}, the
//	                rest verbatim (Algorithm 1's write-ahead intent)
//	4 commit split  a leaf marked Pending{Split}: the local half of
//	                splitHalves — the label the local child's, the epoch
//	                one up, no intent, the records of the
//	                local child's side of the median in stored order
//	5 clear merge   a leaf marked Pending{Merge}: no intent, the epoch kept
const (
	bucketWireVersion = 3
	// bucketWireKind is Bucket's dht.WireValue kind byte.
	bucketWireKind = 1
	// recordReplyMarker opens a record reply where a bucket has its
	// version byte.
	recordReplyMarker = 0xFF
	// patchAckMarker opens a patch's short reply likewise.
	patchAckMarker = 0xFE
	// runReplyMarker opens a run reply likewise.
	runReplyMarker = 0xFD
	// splitReplyMarker opens a patch's split reply likewise.
	splitReplyMarker = 0xFC
	// headerReplyMarker opens a header reply likewise.
	headerReplyMarker = 0xFB
	// absentReplyMarker opens a record reply that found no record.
	absentReplyMarker = 0xFA

	patchUpsert      = 1
	patchDelete      = 2
	patchWantLabel   = 0x80 // on an upsert or delete op: a labelled ack
	patchMarkSplit   = 3
	patchCommitSplit = 4
	patchClearMerge  = 5
)

func init() {
	dht.RegisterWireKind(bucketWireKind, func(data []byte) (dht.Value, error) { return DecodeBucket(data) })
	dht.RegisterWireProbe(bucketWireKind, projectBucket, decodeProbeReply)
	dht.RegisterWirePatch(bucketWireKind, patchBucket, decodePatchReply)
}

// WireKind implements dht.WireValue.
func (b *Bucket) WireKind() byte { return bucketWireKind }

// AppendWire implements dht.WireValue: it appends the bucket's wire
// format to dst.
func (b *Bucket) AppendWire(dst []byte) []byte {
	return record.AppendList(b.appendHeader(dst), b.Records)
}

// appendHeader appends the bucket's header: its wire format up to the
// record list.
func (b *Bucket) appendHeader(dst []byte) []byte {
	dst = append(dst, bucketWireVersion)
	dst = binary.AppendUvarint(dst, b.Epoch)
	dst, _ = b.Label.AppendBinary(dst) // never fails
	if dst = append(dst, byte(b.Pending.Kind)); !b.Torn() {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.Pending.RemoveKey)))
	dst = append(dst, b.Pending.RemoveKey...)
	return binary.AppendUvarint(dst, b.Pending.PeerEpoch)
}

// maxBucketHeaderLen bounds everything AppendWire writes before the
// record list, apart from the remove-key's own bytes.
const maxBucketHeaderLen = 1 + binary.MaxVarintLen64 + bitlabel.MaxBinaryLen + 1 +
	2*binary.MaxVarintLen64

// EncodeBucket serializes a bucket into a buffer sized for it. The error
// is always nil; the signature predates the hand-rolled format.
func EncodeBucket(b *Bucket) ([]byte, error) {
	size := maxBucketHeaderLen + len(b.Pending.RemoveKey) + record.ListSize(b.Records)
	return b.AppendWire(make([]byte, 0, size)), nil
}

// DecodeBucket is the inverse of EncodeBucket. It copies data once and
// the bucket's record values are capacity-clipped sub-slices of that
// copy, so data may be a pooled buffer the caller reuses at once, and
// the values must be treated as read-only. Every length is checked
// against the bytes remaining before it drives an allocation, so
// malformed or hostile input costs O(len(data)) memory and an error.
func DecodeBucket(data []byte) (*Bucket, error) {
	b, err := decodeBucket(append([]byte(nil), data...))
	if err != nil {
		return nil, fmt.Errorf("decode bucket: %w", err)
	}
	return b, nil
}

var errBucketTruncated = errors.New("truncated header")

// decodeBucket parses buf, which the returned bucket takes ownership of.
func decodeBucket(buf []byte) (*Bucket, error) {
	b := new(Bucket)
	rest, err := parseBucketHeader(b, buf)
	if err != nil {
		return nil, err
	}
	if b.Records, err = record.DecodeList(rest); err != nil {
		return nil, err
	}
	return b, nil
}

// parseBucketHeader reads the header off the front of buf into b (every
// field but Records) and returns the bytes that follow it. It keeps no
// reference to buf and allocates only a torn bucket's remove-key.
func parseBucketHeader(b *Bucket, buf []byte) (rest []byte, err error) {
	rest, removeKey, err := parseHeader(b, buf)
	b.Pending.RemoveKey = string(removeKey)
	return rest, err
}

// parseHeader is the one walk over the header, shared by decoding a
// bucket, projecting or patching a stored one on its peer and decoding a
// probe's reply: parseBucketHeader that leaves b's remove-key out and
// returns it as a view of buf, so that it allocates nothing.
func parseHeader(b *Bucket, buf []byte) (rest, removeKey []byte, err error) {
	if len(buf) == 0 {
		return nil, nil, errBucketTruncated
	}
	if buf[0] != bucketWireVersion {
		return nil, nil, fmt.Errorf("unknown wire version %d", buf[0])
	}
	if b.Epoch, buf, err = record.ReadUvarint(buf[1:]); err != nil {
		return nil, nil, err
	}
	if b.Label, buf, err = bitlabel.ReadBinary(buf); err != nil {
		return nil, nil, err
	}
	if len(buf) == 0 {
		return nil, nil, errBucketTruncated
	}
	b.Pending = Pending{Kind: PendingKind(buf[0])}
	switch {
	case b.Pending.Kind > PendingMerge:
		return nil, nil, fmt.Errorf("unknown pending kind %d", b.Pending.Kind)
	case !b.Torn():
		return buf[1:], nil, nil
	}
	var n uint64
	if n, buf, err = record.ReadUvarint(buf[1:]); err != nil {
		return nil, nil, err
	}
	if n > uint64(len(buf)) {
		return nil, nil, errBucketTruncated
	}
	removeKey = buf[:n]
	if b.Pending.PeerEpoch, buf, err = record.ReadUvarint(buf[n:]); err != nil {
		return nil, nil, err
	}
	return buf, removeKey, nil
}

// ProbeHint builds the hint word of a probe for the data key delta: the
// key's bit pattern, with the sign bit saying whether the prober wants
// only delta's record (Search; Insert and Delete, which then patch the
// leaf) or the bucket (LookupBucket, scan, a writer that will write the
// bucket whole, and the probe an upsert's patch rides, should the patch
// be refused). A data key is never negative, but -0.0 passes
// keyspace.CheckKey with the sign bit set, so the key is normalised here.
//
// The hint word has two forms, told apart by bit 62, the top bit of a
// float64's exponent, which no key in [0, 1] sets. Clear, the word is a
// key hint, built here: bit 63 is the record-only wish, the rest delta.
// Set, it is a range hint (RangeHint): bit 63 means nothing, and the 62
// bits below hold the range. parseProbeHint and parseRangeHint, both
// called by projectBucket alone, are the only readers.
func ProbeHint(delta float64, recordOnly bool) uint64 {
	h := math.Float64bits(delta) &^ probeRecordOnly
	if recordOnly {
		h |= probeRecordOnly
	}
	return h
}

const (
	// probeRecordOnly is a key hint's record-only bit.
	probeRecordOnly = 1 << 63
	// probeRange is the bit that makes a hint word a range hint.
	probeRange = 1 << 62
	// rangeHintBits is the width of each of a range hint's two bounds,
	// which count cells of 2^-rangeHintBits: every leaf boundary down to
	// depth 31 is a whole number of them.
	rangeHintBits = 31
	rangeHintMask = 1<<rangeHintBits - 1
)

// parseProbeHint is the inverse of ProbeHint.
func parseProbeHint(hint uint64) (delta float64, recordOnly bool) {
	return math.Float64frombits(hint &^ probeRecordOnly), hint&probeRecordOnly != 0
}

// RangeHint builds the hint word of a range query's probes: the query's
// range [lo, hi), 0 <= lo < hi <= 1, rounded outward to whole cells — the
// first cell the range touches and the last — so what a peer reads back
// (parseRangeHint) contains the range, and equals it when both bounds are
// multiples of 2^-31. The peer's cut is a saving, never the answer: the
// query still filters what comes back by its exact bounds.
func RangeHint(lo, hi float64) uint64 {
	first := uint64(math.Floor(lo * (1 << rangeHintBits)))
	last := uint64(math.Ceil(hi*(1<<rangeHintBits))) - 1
	return probeRange | first<<rangeHintBits | last
}

// parseRangeHint is the inverse of RangeHint, for a hint with probeRange
// set. The bounds are exact in a float64, as is every product above.
func parseRangeHint(hint uint64) keyspace.Interval {
	first, last := hint>>rangeHintBits&rangeHintMask, hint&rangeHintMask
	return keyspace.Interval{Lo: float64(first) / (1 << rangeHintBits), Hi: float64(last+1) / (1 << rangeHintBits)}
}

// projectBucket is the bucket's dht.WireProjector: the storing peer's
// half of a probe (see "Probe replies" above). A probed bucket that does
// not cover the hinted key tells Algorithm 2 only that a leaf with this
// label lives under this name, so its label is all the prober can use;
// one that does cover it ends an exact-match query or a one-record
// write's lookup, which reads a single record of it, found exactly as
// record.FindByKey would. A range query's single gets likewise go on from
// the leaf's label and read only the records in the query's range, cut
// out exactly as record.FilterRange would; a leaf that does not overlap
// the range has none. A torn bucket goes out whole, for the prober must
// see it to repair it, and so does anything that does not parse, for the
// prober's decoder to refuse, and a leaf holding a record its run or its
// record reply could not carry bit for bit.
func projectBucket(dst, data []byte, hint uint64) []byte {
	var b Bucket
	list, _, err := parseHeader(&b, data)
	if err != nil || b.Torn() {
		return append(dst, data...)
	}
	if hint&probeRange != 0 {
		r := parseRangeHint(hint)
		if !b.Interval().Overlaps(r) {
			return appendShort(dst, headerReplyMarker, b.Label)
		}
		mark := len(dst)
		if dst, err = record.AppendRun(appendShort(dst, runReplyMarker, b.Label), list, r.Lo, r.Hi, keyBits(b.Interval())); err != nil {
			return append(dst[:mark], data...) // a list that does not parse, or a key in range the run cannot carry, such as -0
		}
		return dst
	}
	delta, recordOnly := parseProbeHint(hint)
	if !b.Contains(delta) {
		return appendShort(dst, headerReplyMarker, b.Label)
	}
	if !recordOnly {
		return append(dst, data...)
	}
	rec, err := record.FindInList(list, delta)
	switch {
	case err != nil || rec != nil && binary.BigEndian.Uint64(rec) != math.Float64bits(delta):
		return append(dst, data...) // a list that does not parse, or a key stored as -0, which the reply's key would lose
	case rec == nil:
		return appendShort(dst, absentReplyMarker, b.Label)
	}
	_, value, _ := record.ReadUvarint(rec[8:]) // past the key and the length: the reply's end is the value's
	return append(appendShort(dst, recordReplyMarker, b.Label), value...)
}

// keyBits is the span of key bit patterns of a leaf's interval iv: what a
// run of the leaf's records may carry (record.AppendRun).
func keyBits(iv keyspace.Interval) record.KeyBits {
	return record.KeyBits{Lo: math.Float64bits(iv.Lo), Hi: math.Float64bits(iv.Hi)}
}

// appendShort opens a short probe reply: its marker, then the leaf's
// label.
func appendShort(dst []byte, marker byte, l bitlabel.Label) []byte {
	dst, _ = l.AppendBinary(append(dst, marker)) // never fails
	return dst
}

// BucketHeader is a storing peer's whole answer to a probe its leaf
// cannot satisfy (see projectBucket): word that an untorn leaf with this
// label is stored under the probed name. It is deliberately a type of
// its own and not a dht.WireValue, so nothing that handles buckets —
// clone, CAS, write-back, a query's result — can be handed one.
type BucketHeader struct {
	// Label is the leaf's label.
	Label bitlabel.Label
}

// BucketRecord is a storing peer's answer to a record-only probe of the
// untorn leaf that covers the hinted key: the leaf's label and the one
// record the exact-match query came for, or word that the leaf holds
// none. Like BucketHeader it is not a dht.WireValue and has no encoder,
// so it can never be cloned, CAS'd, written back or cached as a bucket.
type BucketRecord struct {
	// Label is the leaf's label.
	Label bitlabel.Label
	// Found reports whether the leaf holds a record with the hinted key.
	Found bool
	// Record is that record when Found; its value is a copy of its own.
	// The reply does not carry the key, which is the hinted one bit for
	// bit: the decoder leaves Record.Key zero, and the index's probe
	// fills it in.
	Record record.Record
}

// decodeProbeReply is the bucket kind's probe decoder: a reply's first
// byte is its form's marker (see "Probe replies"), or a whole bucket's
// version byte.
func decodeProbeReply(data []byte) (dht.Value, error) {
	if len(data) == 0 {
		return DecodeBucket(data)
	}
	switch data[0] {
	case headerReplyMarker, absentReplyMarker, recordReplyMarker, runReplyMarker:
	default:
		return DecodeBucket(data)
	}
	label, rest, err := bitlabel.ReadBinary(data[1:])
	if err != nil {
		return nil, fmt.Errorf("decode probe reply: %w", err)
	}
	switch data[0] {
	case runReplyMarker:
		// The decoder is not told the probe's hint: the run holds every
		// record the peer packed, in a copy of its own, and the query's
		// join filters it as it filters a whole bucket's records.
		n, err := record.CountRun(rest, keyBits(keyspace.IntervalOf(label)))
		if err != nil {
			return nil, fmt.Errorf("decode run reply: %w", err)
		}
		run := &bucketRun{label: label, n: n}
		if n > 0 {
			run.enc = append([]byte(nil), rest...)
		}
		return run, nil
	case recordReplyMarker:
		r := &BucketRecord{Label: label, Found: true}
		if len(rest) > 0 {
			r.Record.Value = append([]byte(nil), rest...)
		}
		return r, nil
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("decode probe reply: %d bytes past the label", len(rest))
	}
	if data[0] == absentReplyMarker {
		return &BucketRecord{Label: label}, nil
	}
	return &BucketHeader{Label: label}, nil
}

// UpsertPatch is the patch that stores rec into the leaf covering its
// key, in place of the record with that key or as a new one. wholeAt is
// the weight from which the writer wants the new bucket back whole (its
// split threshold); 0 asks for the acknowledgement always and puts no
// bound on the leaf's weight. depth is the tree's depth bound D: a leaf
// that deep cannot split, and takes a new record past the weight bound.
func UpsertPatch(rec record.Record, wholeAt, depth int) []byte {
	p := make([]byte, 0, 1+3*binary.MaxVarintLen64+8+len(rec.Value))
	p = binary.AppendUvarint(append(p, patchUpsert), uint64(wholeAt))
	p = binary.AppendUvarint(p, uint64(depth))
	p = binary.BigEndian.AppendUint64(p, math.Float64bits(rec.Key))
	p = binary.AppendUvarint(p, uint64(len(rec.Value)))
	return append(p, rec.Value...)
}

// DeletePatch is the patch that deletes the record with the given key
// from the leaf covering it. wholeBelow is the weight under which the
// writer wants the new bucket back whole (its merge threshold); 0 asks
// for the acknowledgement always.
func DeletePatch(delta float64, wholeBelow int) []byte {
	p := make([]byte, 0, 1+binary.MaxVarintLen64+8)
	p = binary.AppendUvarint(append(p, patchDelete), uint64(wholeBelow))
	return binary.BigEndian.AppendUint64(p, math.Float64bits(delta))
}

// WantLabel turns an upsert or delete patch, in place, into one whose
// acknowledgement names the patched leaf: for a writer whose search has
// not yet seen the leaf it patches. It returns patch.
func WantLabel(patch []byte) []byte {
	patch[0] |= patchWantLabel
	return patch
}

// MarkSplitPatch is the in-place patch that records a split's intent in
// an untorn leaf (see "Patches").
func MarkSplitPatch() []byte { return []byte{patchMarkSplit} }

// CommitSplitPatch is the in-place patch that rewrites a leaf marked for
// a split as the local half of that split.
func CommitSplitPatch() []byte { return []byte{patchCommitSplit} }

// ClearMergePatch is the in-place patch that clears a merged leaf's
// intent.
func ClearMergePatch() []byte { return []byte{patchClearMerge} }

// patchBucket is the bucket's dht.WirePatcher: the storing peer's half of
// a patched write (see "Patches" above). What it appends to dst is byte
// for byte what AppendWire writes for the bucket InsertContext or
// DeleteContext would have built from the stored one — the epoch one up,
// the header otherwise untouched, the record replaced in place, appended,
// or its hole filled with the last record — or, for a one-byte patch, the
// bucket a step of a split or merge would have (patchInPlace). It refuses
// what those would not have written that way: a bucket that is torn or
// does not parse, a key the leaf does not cover, a record to delete that
// is not there, a patch that is not exactly one of the forms. And it
// refuses a new key that would take the leaf past the weight bound (see
// "Patches").
func patchBucket(dst, reply, data, patch []byte) (out, rep []byte, epoch uint64, ok bool) {
	if len(patch) == 1 {
		return patchInPlace(dst, reply, data, patch[0])
	}
	var b Bucket
	list, _, err := parseHeader(&b, data)
	if err != nil || b.Torn() || len(patch) < 2 {
		return dst, reply, 0, false
	}
	op, labelled := patch[0]&^patchWantLabel, patch[0]&patchWantLabel != 0
	whole, arg, err := record.ReadUvarint(patch[1:])
	var depth uint64
	if err == nil && op == patchUpsert {
		depth, arg, err = record.ReadUvarint(arg)
	}
	if err != nil || op != patchUpsert && op != patchDelete || len(arg) < 8 || op == patchDelete && len(arg) != 8 {
		return dst, reply, 0, false
	}
	delta := math.Float64frombits(binary.BigEndian.Uint64(arg))
	if !b.Contains(delta) {
		return dst, reply, 0, false
	}
	// The header past its epoch is copied as it stands; the stored epoch
	// is in shortest form (parseBucketHeader checked), so its length is
	// the length of re-encoding it.
	mark := len(dst)
	dst = binary.AppendUvarint(append(dst, bucketWireVersion), b.Epoch+1)
	dst = append(dst, data[1+record.UvarintLen(b.Epoch):len(data)-len(list)]...)
	head := len(dst)
	var count uint64
	var crossed bool
	if op == patchUpsert {
		was, _, _ := record.ReadUvarint(list)
		dst, count, err = record.UpsertInList(dst, list, arg)
		crossed = whole > 0 && count+1 >= whole
		if d := uint64(b.Label.Len()); err == nil && whole > 0 && count > was && d < depth && count >= whole+d {
			return dst[:mark], reply, 0, false // one record past the bound: split first
		}
	} else {
		dst, count, err = record.DeleteFromList(dst, list, delta)
		crossed = count+1 < whole
	}
	if err != nil {
		return dst[:mark], reply, 0, false
	}
	if crossed && op == patchUpsert && canSplit(b.Label, depth) {
		_, mid, low := splitAt(b.Label)
		if n, _ := record.CountHalf(dst[head:], mid, low); n > 0 { // else the bucket whole is shorter
			reply = binary.AppendUvarint(append(append(reply, splitReplyMarker), dst[mark:head]...), n)
			reply, _, _ = record.AppendHalf(reply, dst[head:], mid, !low) // never fails: the list was just built
			return dst, reply, b.Epoch + 1, true
		}
	}
	if crossed {
		reply = append(reply, dst[mark:]...)
	} else if reply = binary.AppendUvarint(append(reply, patchAckMarker), count); labelled {
		reply, _ = b.Label.AppendBinary(reply) // never fails
	}
	return dst, reply, b.Epoch + 1, true
}

// canSplit reports whether a leaf labelled l can split under the depth
// bound depth: it is no root, and its children fit a label.
func canSplit(l bitlabel.Label, depth uint64) bool {
	return l.Len() > 0 && uint64(l.Len()) < depth && l.Len() < bitlabel.MaxBits
}

// patchInPlace applies one of the in-place patches, op 3 to 5 (see
// "Patches"), under patchBucket's contract. The commit cuts the records
// at the median exactly as splitHalves does — key < mid one side, the
// rest the other — so a key at the top of the leaf's interval, such as
// 1.0 in the rightmost leaf, stays where splitHalves keeps it. A leaf
// that could not have split — the virtual root, or one already as deep
// as a label goes — cannot be committed.
func patchInPlace(dst, reply, data []byte, op byte) (out, rep []byte, epoch uint64, ok bool) {
	var b Bucket
	list, _, err := parseHeader(&b, data)
	if err != nil {
		return dst, reply, 0, false
	}
	next := Bucket{Label: b.Label, Epoch: b.Epoch}
	var mid float64
	var low bool
	switch {
	case op == patchMarkSplit && !b.Torn():
		next.Epoch++
		next.Pending.Kind = PendingSplit
	case op == patchCommitSplit && b.Pending.Kind == PendingSplit && canSplit(b.Label, bitlabel.MaxBits):
		next.Label, mid, low = splitAt(b.Label)
		next.Epoch++
	case op == patchClearMerge && b.Pending.Kind == PendingMerge:
	default:
		return dst, reply, 0, false
	}
	mark := len(dst)
	dst = next.appendHeader(dst)
	var count uint64
	if op == patchCommitSplit {
		dst, count, err = record.AppendHalf(dst, list, mid, low)
	} else if count, err = record.CountList(list); err == nil {
		dst = append(dst, list...)
	}
	if err != nil {
		return dst[:mark], reply, 0, false
	}
	return dst, binary.AppendUvarint(append(reply, patchAckMarker), count), next.Epoch, true
}

// PatchAck is a storing peer's short answer to a patch it applied: the
// leaf's new record count, on the near side of the weight at which the
// patch asked for the bucket. Like BucketHeader it is not a
// dht.WireValue. It travels as a value, not a pointer: a word in an
// interface costs a write no allocation at the counts a leaf holds.
type PatchAck struct {
	// Records is the patched leaf's record count.
	Records int
}

// LeafAck is PatchAck for a patch that asked for the leaf's label
// (WantLabel): the answer to a writer whose search had not yet seen the
// leaf it patched, which it learns here as it would from a probe's reply.
type LeafAck struct {
	// Label is the patched leaf's label.
	Label bitlabel.Label
	// Records is its record count.
	Records int
}

// decodePatchReply is the bucket kind's patch-reply decoder: an
// acknowledgement, labelled or not, a split reply, or a whole bucket.
func decodePatchReply(data []byte) (dht.Value, error) {
	if len(data) > 0 && data[0] == splitReplyMarker {
		return decodeSplitReply(data[1:])
	}
	if len(data) == 0 || data[0] != patchAckMarker {
		return DecodeBucket(data)
	}
	n, rest, err := record.ReadUvarint(data[1:])
	if err != nil || n > math.MaxInt32 {
		return nil, errors.New("decode patch ack: malformed record count")
	}
	if len(rest) == 0 {
		return PatchAck{Records: int(n)}, nil
	}
	a := &LeafAck{Records: int(n)}
	if err := a.Label.UnmarshalBinary(rest); err != nil {
		return nil, fmt.Errorf("decode patch ack: malformed label: %w", err)
	}
	return a, nil
}

// decodeSplitReply decodes a split reply past its marker into the Cut of
// its leaf as the split's intent will mark it.
func decodeSplitReply(data []byte) (*Cut, error) {
	var b Bucket
	list, err1 := parseBucketHeader(&b, data)
	n, list, err2 := record.ReadUvarint(list)
	remote, err3 := record.DecodeList(append([]byte(nil), list...))
	if err := errors.Join(err1, err2, err3); err != nil || b.Torn() || n == 0 || n > math.MaxInt32 || !canSplit(b.Label, bitlabel.MaxBits) {
		return nil, errors.Join(errors.New("decode split reply: not a leaf that splits"), err)
	}
	b.Epoch, b.Pending = b.Epoch+1, Pending{Kind: PendingSplit}
	c := splitHalves(&b)
	c.remote.Records, c.n = remote, int(n)
	return c, nil
}
