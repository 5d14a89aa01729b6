package main

import (
	"context"
	"net"
	"strings"
	"testing"

	"lht"
	"lht/internal/tcpnet"
)

func startClusterWithData(t *testing.T) string {
	t.Helper()
	addrs := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := tcpnet.NewServer()
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, ln.Addr().String())
	}
	nodes := strings.Join(addrs, ",")
	client, err := tcpnet.Dial(context.Background(), tcpnet.ClusterConfig{Seeds: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	ix, err := lht.New(client, lht.Config{SplitThreshold: 8, MergeThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := ix.Insert(lht.Record{Key: float64(i) / 300, Value: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

func TestDumpSummary(t *testing.T) {
	nodes := startClusterWithData(t)
	var out strings.Builder
	if err := run([]string{"-nodes", nodes, "-theta", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"leaves:", "records:  300", "depth histogram:"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestDumpTree(t *testing.T) {
	nodes := startClusterWithData(t)
	var out strings.Builder
	if err := run([]string{"-nodes", nodes, "-theta", "8", "-tree"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "#0") || !strings.Contains(s, "records") {
		t.Errorf("tree output malformed:\n%s", s)
	}
	// Leaves must appear in key order: first line covers 0.000000.
	first := strings.SplitN(s, "\n", 2)[0]
	if !strings.Contains(first, "[0.000000,") {
		t.Errorf("first leaf should start at 0: %q", first)
	}
}

func TestDumpErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-nodes", "127.0.0.1:1"}, &out); err == nil {
		t.Error("dead cluster should fail")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("bad flag should fail")
	}
	nodes := startClusterWithData(t)
	if err := run([]string{"-nodes", nodes, "extra"}, &out); err == nil {
		t.Error("extra args should fail")
	}
}
