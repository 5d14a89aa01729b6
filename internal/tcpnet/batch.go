package tcpnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"lht/internal/dht"
)

var _ dht.Batcher = (*Client)(nil)

// malformedResp wraps a response-parse failure: the server (or something
// between) broke framing, which is a transport-level, retryable fault.
func malformedResp(err error) error {
	return dht.MarkTransient(fmt.Errorf("tcpnet: malformed response: %w", err))
}

// GetBatch implements dht.Batcher: the batch's keys are grouped by owning
// node and each group travels as one framed multi-op message, every
// node's frame written before any reply is read, so the round trips to
// distinct nodes overlap on the caller's goroutine. A transport failure
// touches only that node's slots, which are read again from their other
// holders if they have any; the rest of the batch stands.
func (c *Client) GetBatch(ctx context.Context, keys []string) ([]dht.Value, []error) {
	return c.getBatch(ctx, keys, probeHint{})
}

// ProbeBatch implements dht.Prober: GetBatch with hint in every frame
// (frame.go).
func (c *Client) ProbeBatch(ctx context.Context, keys []string, hint uint64) ([]dht.Value, []error) {
	return c.getBatch(ctx, keys, probeHint{v: hint, set: true})
}

// getBatch is GetBatch's and ProbeBatch's one body. Its frames go to the
// keys' primaries: the primary is in every key's holder set and sees
// every accepted write, so its ErrNotFound is a miss as authoritative as
// Get's. A slot that failed otherwise (a transport fault, a redial gate
// backing off) is read again through Get's holder walk when the key has
// another holder to walk to, so a batched read fails over as a single
// one does.
func (c *Client) getBatch(ctx context.Context, keys []string, h probeHint) ([]dht.Value, []error) {
	vals := make([]dht.Value, len(keys))
	errs := make([]error, len(keys))
	batchRound(ctx, dht.OpGetBatch, c.groupByRank(keys, 0), errs,
		func(b []byte, slots []int) ([]byte, error) { return appendGetBatch(b, keys, slots, h), nil },
		func(i int, tv []byte) { vals[i], errs[i] = decodeTagged(tv, h.set) })
	for i, err := range errs {
		if err == nil || errors.Is(err, dht.ErrNotFound) || ctx.Err() != nil || len(c.holders(keys[i])) == 1 {
			continue
		}
		vals[i], errs[i] = c.get(ctx, req{op: dht.OpGet, key: keys[i], hint: h})
	}
	return vals, errs
}

// PutBatch implements dht.Batcher with the same per-owner grouping as
// GetBatch. Pairs travel and apply in slice order, so a duplicate key's
// last occurrence wins. A pair whose value has no stored form fails in
// its slot alone and is left out of the wire message. With replication on,
// the batch is stored on every holder — one wave of per-node batches per
// replica rank — so a bulk load leaves the same fully replicated store
// that per-key writes would.
func (c *Client) PutBatch(ctx context.Context, kvs []dht.KV) []error {
	errs := c.putBatchRank(ctx, kvs, 0)
	for r := 1; r < c.cfg.Replicas; r++ {
		for i, err := range c.putBatchRank(ctx, kvs, r) {
			if errs[i] == nil {
				errs[i] = err
			}
		}
	}
	return errs
}

// putBatchRank stores each pair on its rank-th holder, grouped per node.
func (c *Client) putBatchRank(ctx context.Context, kvs []dht.KV, rank int) []error {
	errs := make([]error, len(kvs))
	keys := make([]string, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
	}
	// A value with no stored form fails in its slot alone, before the
	// frames are built.
	for i, kv := range kvs {
		errs[i] = storable(kv.Val)
	}
	groups := c.groupByRank(keys, rank)
	live := groups[:0]
	for _, g := range groups {
		sendable := g.slots[:0]
		for _, i := range g.slots {
			if errs[i] == nil {
				sendable = append(sendable, i)
			}
		}
		if len(sendable) > 0 {
			live = append(live, ownerGroup{n: g.n, slots: sendable})
		}
	}
	batchRound(ctx, dht.OpPutBatch, live, errs,
		func(b []byte, slots []int) ([]byte, error) { return appendPutBatch(b, kvs, slots) }, nil)
	return errs
}

// ownerGroup is one node's share of a batch: the slot indices it serves,
// ascending, and, once batchRound has sent its frame, where to wait for
// the reply.
type ownerGroup struct {
	n     *clientNode
	slots []int
	m     *mconn // the connection the frame went out on
	sent  ticket
	err   error // why the group failed, for every one of its slots
}

// batchRound sends each group's frame, build's payload for the group's
// slots, to its node, then waits for the replies in group order and hands
// each ok slot's value bytes to ok (nil: an ok slot carries nothing to
// keep). All of it runs on the caller's goroutine: every node's frame is
// written before any reply is read, so the round trips overlap, and the
// later replies are mostly in their sockets by the time they are read. A
// group whose round trip failed gets that error in each of its slots; as
// call's, a transport failure is retried once on a fresh dial.
func batchRound(ctx context.Context, op dht.OpKind, groups []ownerGroup, errs []error,
	build func(b []byte, slots []int) ([]byte, error), ok func(i int, tv []byte)) {
	for gi := range groups {
		g := &groups[gi]
		g.m = g.n.pick()
		g.sent, g.err = g.m.send(ctx, op, func(b []byte) ([]byte, error) { return build(b, g.slots) })
	}
	for gi := range groups {
		g := &groups[gi]
		if g.err == nil {
			var body *[]byte
			if body, g.err = g.m.wait(ctx, g.sent, op, func(b []byte) ([]byte, error) { return build(b, g.slots) }); g.err == nil {
				g.err = readSlots(body, g.slots, errs, ok)
			}
		}
		if g.err != nil {
			for _, i := range g.slots {
				errs[i] = g.err
			}
		}
	}
}

// groupByRank groups each key under its rank-th holder (rank 0 is the
// primary; higher ranks exist only with replication on), the groups in
// ring order. All the groups' slots share one backing array.
func (c *Client) groupByRank(keys []string, rank int) []ownerGroup {
	nodes := c.ringNodes()
	buf := make([]int, 2*len(keys))
	at, slots := buf[:len(keys)], buf[len(keys):]
	for i, k := range keys {
		at[i] = (ownerIndex(nodes, k) + rank) % len(nodes)
		slots[i] = i
	}
	slices.SortFunc(slots, func(a, b int) int {
		if d := at[a] - at[b]; d != 0 {
			return d
		}
		return a - b
	})
	groups := make([]ownerGroup, 0, min(len(keys), len(nodes)))
	for lo := 0; lo < len(slots); {
		hi := lo + 1
		for hi < len(slots) && at[slots[hi]] == at[slots[lo]] {
			hi++
		}
		groups = append(groups, ownerGroup{n: nodes[at[slots[lo]]], slots: slots[lo:hi:hi]})
		lo = hi
	}
	return groups
}

// appendGetBatch appends a getbatch payload: the slots' keys, then h when
// it is set.
func appendGetBatch(b []byte, keys []string, slots []int, h probeHint) []byte {
	b = appendUv(b, uint64(len(slots)))
	for _, i := range slots {
		b = appendKey(b, keys[i])
	}
	if h.set {
		b = binary.BigEndian.AppendUint64(b, h.v)
	}
	return b
}

// appendPutBatch appends a putbatch payload: the slots' pairs.
func appendPutBatch(b []byte, kvs []dht.KV, slots []int) (_ []byte, err error) {
	b = appendUv(b, uint64(len(slots)))
	for _, i := range slots {
		b = appendKey(b, kvs[i].Key)
		at := len(b) // the value's length goes here
		if b, err = appendValue(append(b, 0), kvs[i].Val); err != nil {
			return nil, err
		}
		b = closeLen(b, at)
	}
	return b, nil
}

// readSlots parses a batch reply, body, whose slots answer slots in
// order: an ok slot's value bytes go to ok, any other slot's error to
// errs. A reply that is no batch of len(slots) slots is returned as the
// error of them all. body is recycled.
func readSlots(body *[]byte, slots []int, errs []error, ok func(i int, tv []byte)) error {
	defer putBuf(body)
	cur := cursor{b: *body}
	status, err := cur.u8()
	if err != nil {
		return malformedResp(err)
	}
	if status != statusOK {
		return serverErr(cur.rest())
	}
	got, err := cur.count()
	if err != nil {
		return malformedResp(err)
	}
	if got != len(slots) {
		return fmt.Errorf("tcpnet: batch reply has %d slots, want %d", got, len(slots))
	}
	for _, i := range slots {
		st, err := cur.u8()
		if err != nil {
			errs[i] = malformedResp(err)
			continue
		}
		if st == statusNotFound {
			errs[i] = dht.ErrNotFound
			continue
		}
		b, err := cur.lenBytes()
		switch {
		case err != nil:
			errs[i] = malformedResp(err)
		case st != statusOK:
			errs[i] = serverErr(b)
		case ok != nil:
			ok(i, b)
		}
	}
	return nil
}
