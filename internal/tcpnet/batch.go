package tcpnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"lht/internal/dht"
)

var _ dht.Batcher = (*Client)(nil)

// malformedResp wraps a response-parse failure: the server (or something
// between) broke framing, which is a transport-level, retryable fault.
func malformedResp(err error) error {
	return dht.MarkTransient(fmt.Errorf("tcpnet: malformed response: %w", err))
}

// GetBatch implements dht.Batcher: the batch's keys are grouped by owning
// node and each group travels as one framed multi-op message, the round
// trips to distinct nodes running concurrently. A transport failure
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
// Get's. A slot that failed otherwise (a transport fault, an open
// breaker) is read again through Get's holder walk when the key has
// another holder to walk to, so a batched read fails over as a single
// one does.
func (c *Client) getBatch(ctx context.Context, keys []string, h probeHint) ([]dht.Value, []error) {
	vals := make([]dht.Value, len(keys))
	errs := make([]error, len(keys))
	if groups := c.groupByRank(keys, 0); len(groups) == 1 {
		c.frameGetBatch(ctx, groups[0].n, keys, groups[0].slots, h, vals, errs)
	} else {
		eachGroup(groups, func(g ownerGroup) {
			c.frameGetBatch(ctx, g.n, keys, g.slots, h, vals, errs)
		})
	}
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
			live = append(live, ownerGroup{g.n, sendable})
		}
	}
	if len(live) == 1 {
		c.framePutBatch(ctx, live[0].n, kvs, live[0].slots, errs)
	} else {
		eachGroup(live, func(g ownerGroup) {
			c.framePutBatch(ctx, g.n, kvs, g.slots, errs)
		})
	}
	return errs
}

// ownerGroup is one node's share of a batch: the slot indices it serves,
// ascending.
type ownerGroup struct {
	n     *clientNode
	slots []int
}

// eachGroup runs do once per group, the groups concurrently: one round
// trip per node, all in flight together. The last group runs on the
// caller's goroutine, so a batch over k nodes starts k−1 goroutines. Its
// callers run a batch that has a single owner themselves, and so build
// neither the closure nor the WaitGroup for it.
func eachGroup(groups []ownerGroup, do func(ownerGroup)) {
	if len(groups) == 0 {
		return
	}
	last := len(groups) - 1
	var wg sync.WaitGroup
	for _, g := range groups[:last] {
		wg.Add(1)
		go func(g ownerGroup) {
			defer wg.Done()
			do(g)
		}(g)
	}
	do(groups[last])
	wg.Wait()
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
		groups = append(groups, ownerGroup{nodes[at[slots[lo]]], slots[lo:hi:hi]})
		lo = hi
	}
	return groups
}

// batchCall performs one framed batch round trip and hands back a cursor
// positioned at the first of want slots, or an error applied to the whole
// group. The returned frame must be recycled after the slots are parsed.
func batchCall(ctx context.Context, m *mconn, op dht.OpKind, want int, build func([]byte) ([]byte, error)) (cursor, *[]byte, error) {
	body, err := m.call(ctx, op, build)
	if err != nil {
		return cursor{}, nil, err
	}
	cur := cursor{b: *body}
	status, err := cur.u8()
	if err != nil {
		putBuf(body)
		return cursor{}, nil, malformedResp(err)
	}
	if status != statusOK {
		err = serverErr(cur.rest())
		putBuf(body)
		return cursor{}, nil, err
	}
	got, err := cur.count()
	if err != nil {
		putBuf(body)
		return cursor{}, nil, malformedResp(err)
	}
	if got != want {
		putBuf(body)
		return cursor{}, nil, fmt.Errorf("tcpnet: batch reply has %d slots, want %d", got, want)
	}
	return cur, body, nil
}

// frameGetBatch fetches one node's slots of a batch in one frame, with h
// when it is set.
func (c *Client) frameGetBatch(ctx context.Context, n *clientNode, keys []string, slots []int, h probeHint, vals []dht.Value, errs []error) {
	cur, frame, err := batchCall(ctx, n.pick(), dht.OpGetBatch, len(slots), func(b []byte) ([]byte, error) {
		b = appendUv(b, uint64(len(slots)))
		for _, i := range slots {
			b = appendKey(b, keys[i])
		}
		if h.set {
			b = binary.BigEndian.AppendUint64(b, h.v)
		}
		return b, nil
	})
	if err != nil {
		for _, i := range slots {
			errs[i] = err
		}
		return
	}
	defer putBuf(frame)
	for _, i := range slots {
		st, err := cur.u8()
		if err != nil {
			errs[i] = malformedResp(err)
			continue
		}
		switch st {
		case statusOK:
			tv, err := cur.lenBytes()
			if err != nil {
				errs[i] = malformedResp(err)
				continue
			}
			vals[i], errs[i] = decodeTagged(tv, h.set)
		case statusNotFound:
			errs[i] = dht.ErrNotFound
		default:
			msg, err := cur.lenBytes()
			if err != nil {
				errs[i] = malformedResp(err)
				continue
			}
			errs[i] = serverErr(msg)
		}
	}
}

func (c *Client) framePutBatch(ctx context.Context, n *clientNode, kvs []dht.KV, slots []int, errs []error) {
	cur, frame, err := batchCall(ctx, n.pick(), dht.OpPutBatch, len(slots), func(b []byte) (_ []byte, err error) {
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
	})
	if err != nil {
		for _, i := range slots {
			errs[i] = err
		}
		return
	}
	defer putBuf(frame)
	for _, i := range slots {
		st, err := cur.u8()
		if err != nil {
			errs[i] = malformedResp(err)
			continue
		}
		switch st {
		case statusOK:
			if _, err := cur.lenBytes(); err != nil {
				errs[i] = malformedResp(err)
			}
		case statusNotFound:
			errs[i] = dht.ErrNotFound
		default:
			msg, err := cur.lenBytes()
			if err != nil {
				errs[i] = malformedResp(err)
				continue
			}
			errs[i] = serverErr(msg)
		}
	}
}
