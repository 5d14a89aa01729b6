package dht

import (
	"strings"
	"testing"
)

// testWireKind is a kind byte no package claims.
const testWireKind = 250

func init() {
	RegisterWireKind(testWireKind, func(data []byte) (Value, error) { return string(data), nil })
}

func TestWireKindRegistry(t *testing.T) {
	v, err := DecodeWire(testWireKind, []byte("abc"))
	if err != nil || v != "abc" {
		t.Fatalf("DecodeWire = %v, %v", v, err)
	}
	if _, err := DecodeWire(251, nil); err == nil || !strings.Contains(err.Error(), "251") {
		t.Errorf("unregistered kind: err = %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("registering a kind twice did not panic")
		}
	}()
	RegisterWireKind(testWireKind, func([]byte) (Value, error) { return nil, nil })
}
