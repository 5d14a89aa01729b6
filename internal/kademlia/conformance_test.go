package kademlia

import (
	"testing"

	"lht/internal/dht"
	"lht/internal/dht/dhttest"
)

func TestNetworkConformance(t *testing.T) {
	dhttest.Run(t, func(t *testing.T) dht.DHT {
		nw, err := NewNetwork(10, Config{Seed: 99, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}, dhttest.Options{Keys: 120})
}

func TestNetworkConditionalConformance(t *testing.T) {
	dhttest.RunConditional(t, func(t *testing.T) dht.DHT {
		nw, err := NewNetwork(10, Config{Seed: 99, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	})
}
