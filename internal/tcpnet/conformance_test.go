package tcpnet

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"

	"lht/internal/dht"
	"lht/internal/dht/dhttest"
)

// startServers boots n fresh servers and returns their addresses.
func startServers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer()
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs
}

// selfSerialising runs the dhttest battery over a struct that serialises
// itself (a dht.WireValue, stored as tagWire), as the index's buckets do.
var selfSerialising = dhttest.Options{
	Keys: 120,
	ValueFactory: func(i int) dht.Value {
		return &dhttest.EpochValue{Epoch: uint64(i), Body: fmt.Sprint("v-", i)}
	},
	ValueEqual: func(v dht.Value, i int) bool {
		e, ok := v.(*dhttest.EpochValue)
		return ok && e.Epoch == uint64(i) && e.Body == fmt.Sprint("v-", i)
	},
}

// TestClientConformance runs the full dhttest battery over the framed
// wire, with both self-serialising struct values and raw []byte values
// (the zero-serialization fast path).
func TestClientConformance(t *testing.T) {
	factory := func(t *testing.T) dht.DHT {
		c, err := Dial(context.Background(), ClusterConfig{Seeds: startServers(t, 3)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	t.Run("binary/struct", func(t *testing.T) {
		dhttest.Run(t, factory, selfSerialising)
	})
	t.Run("binary/bytes", func(t *testing.T) {
		dhttest.Run(t, factory, dhttest.Options{
			Keys:         120,
			ValueFactory: func(i int) dht.Value { return []byte(fmt.Sprintf("v-%d", i)) },
			ValueEqual: func(v dht.Value, i int) bool {
				b, ok := v.([]byte)
				return ok && bytes.Equal(b, []byte(fmt.Sprintf("v-%d", i)))
			},
		})
	})
	t.Run("binary/conditional", func(t *testing.T) {
		// The byte store serves the CAS from the epoch prefix written
		// with every put-like op.
		dhttest.RunConditional(t, factory, dhttest.Options{})
	})
}
