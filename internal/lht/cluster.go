package lht

// Cluster-facing facade: the index exposes the membership plane of its
// substrate (when it has one) without callers needing to hold the
// tcpnet client themselves. Both methods type-assert the bare substrate
// the index was built over — the instrumentation, hedging and policy
// wrappers all sit above it and do not implement the
// membership interfaces.

import (
	"context"
	"errors"

	"lht/internal/dht"
)

// ErrNoCluster reports a cluster operation against a substrate that has
// no membership plane (anything but the tcpnet cluster client).
var ErrNoCluster = errors.New("lht: substrate has no cluster membership plane")

// ClusterStatus reports the substrate cluster's membership view: per
// member its gossip state and incarnation, and known replica debt. It
// fails with
// ErrNoCluster when the substrate does not implement dht.ClusterReporter.
// Status traffic rides the membership plane and is free in the paper's
// cost model.
func (ix *Index) ClusterStatus(ctx context.Context) (dht.ClusterStatus, error) {
	if r, ok := ix.raw.(dht.ClusterReporter); ok {
		return r.ClusterStatus(ctx)
	}
	return dht.ClusterStatus{}, ErrNoCluster
}

// rereplicator returns the substrate's replica-repair interface when the
// config opted in and the substrate has one.
func (ix *Index) rereplicator() (dht.Rereplicator, bool) {
	if !ix.cfg.Rereplicate {
		return nil, false
	}
	rr, ok := ix.raw.(dht.Rereplicator)
	return rr, ok
}
