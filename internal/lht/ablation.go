package lht

import (
	"context"
	"errors"
	"fmt"

	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/record"
)

// LookupBucketLinear is an ablation of Algorithm 2: it resolves a data
// key by walking the candidate name sequence top-down (root name first,
// then f_nn after every non-covering bucket) instead of binary-searching
// it. Every probe hits an existing name, so there are no failed gets, but
// the probe count grows linearly with the number of distinct names on the
// path - about half the leaf depth - where the binary search pays
// O(log(D/2)). The benchmark harness uses it to quantify what the
// paper's binary search buys.
func (ix *Index) LookupBucketLinear(delta float64) (*Bucket, Cost, error) {
	var cost Cost
	mu, err := keyspace.Mu(delta, ix.cfg.Depth)
	if err != nil {
		return nil, cost, err
	}
	x := mu.Prefix(1)
	for {
		b, err := ix.getBucket(context.Background(), x.Name().Key(), &cost)
		switch {
		case errors.Is(err, dht.ErrNotFound):
			// Top-down probes only visit ancestors of the target leaf,
			// whose names all exist; a miss means the tree changed or is
			// corrupt.
			cost.Steps = cost.Lookups
			return nil, cost, fmt.Errorf("%w: linear lookup missed name %s", ErrCorrupt, x.Name())
		case err != nil:
			cost.Steps = cost.Lookups
			return nil, cost, err
		case b.Contains(delta):
			cost.Steps = cost.Lookups
			return b, cost, nil
		}
		next, ok := x.NextName(mu)
		if !ok {
			cost.Steps = cost.Lookups
			return nil, cost, fmt.Errorf("%w: linear lookup exhausted mu %s at %s", ErrCorrupt, mu, x)
		}
		x = next
	}
}

// SearchLinear is Search using the linear lookup strategy (ablation).
func (ix *Index) SearchLinear(delta float64) (record.Record, Cost, error) {
	b, cost, err := ix.LookupBucketLinear(delta)
	if err != nil {
		return record.Record{}, cost, err
	}
	if i := record.FindByKey(b.Records, delta); i >= 0 {
		return b.Records[i], cost, nil
	}
	return record.Record{}, cost, keyNotFound(delta)
}
