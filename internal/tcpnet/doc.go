// Package tcpnet is the real-network deployment mode: storage nodes that
// serve a key-value protocol over TCP, and a client that implements the
// dht.DHT interface over them with client-side consistent hashing.
//
// There is one wire: the framed binary protocol (frame.go) —
// reflection-free length-prefixed frames with pooled buffers, carried by a
// pipelined multiplexer (mux.go) that keeps many requests in flight per
// connection. A connection opens with the "LH10" magic; a server closes
// one that opens with anything else, a peer of the protocol generation
// before this one included: nodes and clients of one generation upgrade
// together, and nothing negotiates which request forms a node serves.
// There is one transport too: a server reaches its gossip peers through
// the same clientNode and pipelined connection a client uses for its
// members (membership.go). Servers are pure byte stores: values
// travel and are stored tagged (frame.go lists the tags), and the server
// reads no further into one than its epoch prefix; what a hinted get
// ships of a value and what a patchif makes of one it asks the value's
// kind, bytes in and bytes out (dht.WireProjector, dht.WirePatcher).
// There is one stored form too: a value is a []byte, shipped as it is,
// or a dht.WireValue, which serialises itself; any other type is refused
// before a frame is sent. encoding/gob survives only as the snapshot
// file's container (persist.go).
//
// This is the substrate behind cmd/lht-node and cmd/lht-cli: it
// demonstrates the paper's "easy to implement and deploy" claim with
// actual sockets and processes. The cluster's moving parts live here too:
// gossiped membership that grows and shrinks the client's routing ring
// (membership.go, clusterview.go), client-driven replication whose reads
// start at the primary and fail over to the other holders (replicas.go)
// — one path for every replica count, an unreplicated client being a
// holder set of one — write failover, which leaves a copy a down holder
// missed to the re-replicating scrub, and per-node redial gates that
// fail a dead node fast and feed the client's view its suspicion
// (health.go). The index layer sees none of it — it talks to a dht.DHT,
// which is the point of the over-DHT design.
package tcpnet
