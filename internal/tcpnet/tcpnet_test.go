package tcpnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/record"
)

// startCluster boots n servers on loopback and returns a connected client.
func startCluster(t *testing.T, n int) (*Client, []*Server) {
	t.Helper()
	addrs := make([]string, 0, n)
	servers := make([]*Server, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer()
		go func() {
			if err := srv.Serve(ln); err != nil {
				t.Logf("server exited: %v", err)
			}
		}()
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, ln.Addr().String())
		servers = append(servers, srv)
	}
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, servers
}

func TestClusterBasicOps(t *testing.T) {
	c, servers := startCluster(t, 3)

	if err := c.Put(context.Background(), "a", []byte("x1")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if string(v.([]byte)) != "x1" {
		t.Fatalf("Get = %q", v)
	}
	if _, err := c.Get(context.Background(), "missing"); !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("Get missing = %v", err)
	}
	if err := c.Write(context.Background(), "a", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Get(context.Background(), "a"); string(v.([]byte)) != "2" {
		t.Fatal("Write lost")
	}
	if err := c.Write(context.Background(), "missing", []byte("0")); !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("Write missing = %v", err)
	}
	v, err = c.Take(context.Background(), "a")
	if err != nil || string(v.([]byte)) != "2" {
		t.Fatalf("Take = %v, %v", v, err)
	}
	if _, err := c.Take(context.Background(), "a"); !errors.Is(err, dht.ErrNotFound) {
		t.Fatal("second Take should miss")
	}
	if err := c.Put(context.Background(), "b", []byte("3")); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(context.Background(), "b"); err != nil {
		t.Fatal("Remove absent must not error")
	}

	// Keys spread across the member set.
	total := 0
	for i := 0; i < 60; i++ {
		if err := c.Put(context.Background(), fmt.Sprintf("spread-%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	nonEmpty := 0
	for _, s := range servers {
		total += s.Len()
		if s.Len() > 0 {
			nonEmpty++
		}
	}
	if total != 60 {
		t.Fatalf("cluster holds %d keys, want 60", total)
	}
	if nonEmpty < 2 {
		t.Errorf("keys landed on %d of 3 nodes", nonEmpty)
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(context.Background(), ClusterConfig{Seeds: nil}); err == nil {
		t.Error("Dial with no nodes should fail")
	}
	if _, err := Dial(context.Background(), ClusterConfig{Seeds: []string{"x:1", "x:1"}}); err == nil {
		t.Error("Dial with duplicates should fail")
	}
	if _, err := Dial(context.Background(), ClusterConfig{Seeds: []string{"127.0.0.1:1"}}); err == nil {
		t.Error("Dial to a dead port should fail the ping")
	}
}

func TestConcurrentClients(t *testing.T) {
	c, _ := startCluster(t, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("c%d-%d", g, i)
				if err := c.Put(context.Background(), key, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				v, err := c.Get(context.Background(), key)
				if err != nil || !bytes.Equal(v.([]byte), []byte{byte(i)}) {
					t.Errorf("Get(%s) = %v, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLHTOverTCPCluster runs the full index over real sockets: the
// deployment mode end to end.
func TestLHTOverTCPCluster(t *testing.T) {
	c, _ := startCluster(t, 5)
	ix, err := ilht.New(c, ilht.Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	oracle := make(map[float64]bool)
	for i := 0; i < 400; i++ {
		k := rng.Float64()
		if rng.Intn(5) == 0 && len(oracle) > 0 {
			for dk := range oracle {
				k = dk
				break
			}
			if _, err := ix.Delete(k); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			delete(oracle, k)
			continue
		}
		if _, err := ix.Insert(record.Record{Key: k, Value: []byte("v")}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		oracle[k] = true
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.Range(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(oracle) {
		t.Fatalf("Range(0,1) = %d records, want %d", len(got), len(oracle))
	}
	for k := range oracle {
		if _, _, err := ix.Search(k); err != nil {
			t.Fatalf("Search(%v): %v", k, err)
		}
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	c, err := Dial(context.Background(), ClusterConfig{Seeds: []string{ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), "k", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after Close", err)
	}
	// The client should now fail cleanly.
	if err := c.Put(context.Background(), "k2", []byte("2")); err == nil {
		t.Error("Put to closed server should fail")
	}
}

// gobPutStream is what a pre-framed-wire client's gob encoder opened a
// connection with: the type descriptors of its request struct, then a put
// of key "k". Recorded from the last build that spoke that protocol.
const gobPutStream = "c\x7f\x03\x01\x01\arequest\x01\xff\x80\x00\x01\b\x01\x02Op\x01\x06\x00\x01\x03Key\x01\f\x00\x01\x03Val\x01\n\x00\x01\x04Keys\x01\xff\x82\x00\x01\x03KVs\x01\xff\x86\x00\x01\aIfEpoch\x01\x06\x00\x01\x05Epoch\x01\x06\x00\x01\nEpochKnown\x01\x02\x00\x00\x00" +
	"\x16\xff\x81\x02\x01\x01\b[]string\x01\xff\x82\x00\x01\f\x00\x00" +
	"\x1f\xff\x85\x02\x01\x01\x10[]tcpnet.batchKV\x01\xff\x86\x00\x01\xff\x84\x00\x00" +
	">\xff\x83\x03\x01\x01\abatchKV\x01\xff\x84\x00\x01\x04\x01\x03Key\x01\f\x00\x01\x03Val\x01\n\x00\x01\x05Epoch\x01\x06\x00\x01\nEpochKnown\x01\x02\x00\x00\x00" +
	"\v\xff\x80\x01\x03\x01\x01k\x01\x01\x01\x00"

// TestServerRejectsNonMagic: a connection that does not open with the
// LH10 magic, or follows it with something that is not a frame, is closed
// without a byte served, the store untouched and no handler left behind.
func TestServerRejectsNonMagic(t *testing.T) {
	_, servers := startCluster(t, 1)
	srv := servers[0]
	addr := srv.ln.Addr().String()
	leak := checkGoroutines(t)

	for name, tc := range map[string]struct {
		send      string
		halfClose bool // the peer hangs up before the magic is complete
	}{
		"gob stream":        {send: gobPutStream},
		"nothing then EOF":  {send: "", halfClose: true},
		"1 byte then EOF":   {send: "L", halfClose: true},
		"3 bytes then EOF":  {send: wireMagic[:3], halfClose: true},
		"wrong magic":       {send: "LHT1"},
		"the last magic":    {send: "LHT9" + string(buildFrame(0, dht.OpPing, nil))},
		"the one before":    {send: "LHT8" + string(buildFrame(0, dht.OpPing, nil))},
		"an older magic":    {send: "LHT5" + string(oldFrame(0, dht.OpPing, nil))},
		"magic, short len":  {send: wireMagic + "\x01junk"},
		"magic, huge len":   {send: wireMagic + "\xff\xff\xff\xffjunk"},
		"magic, torn frame": {send: wireMagic + "\x20junk", halfClose: true},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(tc.send)); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if tc.halfClose {
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatalf("%s: close write: %v", name, err)
			}
		}
		// A close that leaves sent bytes unread reaches the peer as a reset,
		// not an EOF; either is a close, a timeout is not.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := io.ReadAll(conn)
		if len(got) != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: server answered %q, %v; want a bare close", name, got, err)
		}
		_ = conn.Close()
	}
	if n := srv.Len(); n != 0 {
		t.Errorf("store holds %d keys after rejected connections, want 0", n)
	}
	leak()
}

// TestServerClosesThePreviousGeneration: a peer of the protocol generation
// before this one opens with its own magic and a ping, then a put, as such
// a client would: the frames are this generation's, the key field its own,
// uv klen and the key's bytes. The node closes the connection with not one
// frame served — no ping reply for its handshake to misread — and stores
// nothing.
func TestServerClosesThePreviousGeneration(t *testing.T) {
	_, servers := startCluster(t, 1)
	srv := servers[0]
	put := append(appendLenString(nil, "#0110"), tagRaw, 'v')
	previous := wireMagic[:3] + string(wireMagic[3]-1)
	msg := append(append([]byte(previous), buildFrame(0, dht.OpPing, nil)...), buildFrame(1, dht.OpPut, put)...)
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	if len(got) != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("a %s dialer was answered %q, %v; want a bare close", previous, got, err)
	}
	if n := srv.Len(); n != 0 {
		t.Errorf("store holds %d keys after the %s dialer, want 0", n, previous)
	}
}

// oldFrame is a request frame of the LHT5 generation: a u32 length, a u64
// id and the op, then the payload.
func oldFrame(id uint64, op dht.OpKind, payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(9+len(payload)))
	b = append(binary.BigEndian.AppendUint64(b, id), byte(op))
	return append(b, payload...)
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/node.snap"

	srv := NewServer()
	for i := 0; i < 50; i++ {
		plantValue(srv, fmt.Sprintf("k%d", i), []byte{tagRaw, byte(i)})
	}
	if err := srv.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	restored := NewServer()
	if err := restored.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 50 {
		t.Fatalf("restored %d keys, want 50", restored.Len())
	}
	if v := storedValue(restored, "k7"); string(v) != string([]byte{tagRaw, 7}) {
		t.Fatalf("restored value = % x", v)
	}

	// Missing snapshot is a fresh node, not an error.
	fresh := NewServer()
	if err := fresh.LoadSnapshot(dir + "/absent.snap"); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 0 {
		t.Fatal("fresh node should be empty")
	}

	// Corrupt snapshot is an error.
	if err := os.WriteFile(dir+"/bad.snap", []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadSnapshot(dir + "/bad.snap"); err == nil {
		t.Fatal("corrupt snapshot should fail")
	}
}

// TestNodeRestartPreservesIndex restarts a node under a live index and
// verifies the shard survives via the snapshot.
func TestNodeRestartPreservesIndex(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := NewServer()
	go func() { _ = srv.Serve(ln) }()

	c, err := Dial(context.Background(), ClusterConfig{Seeds: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ilht.New(c, ilht.Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	keys := make([]float64, 100)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i]}); err != nil {
			t.Fatal(err)
		}
	}

	// Stop, snapshot, restart on the same port, reload.
	snapPath := dir + "/shard.snap"
	if err := srv.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	srv2 := NewServer()
	if err := srv2.LoadSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv2.Serve(ln2) }()
	t.Cleanup(func() { _ = srv2.Close() })

	c2, err := Dial(context.Background(), ClusterConfig{Seeds: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := ilht.New(c2, ilht.Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, _, err := ix2.Search(k); err != nil {
			t.Fatalf("after restart, Search(%v): %v", k, err)
		}
	}
}

// storedValue returns the value srv stores under k, nil if none; plantValue
// stores v under k as it is. Neither takes srv.mu: a test that reaches a
// serving node's store holds it around the call.
func storedValue(srv *Server, k string) []byte { return srv.store[k].val }

func plantValue(srv *Server, k string, v []byte) { srv.store[k] = entry{k, v} }
