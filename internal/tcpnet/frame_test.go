package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"lht/internal/dht"
)

// buildFrame assembles a raw frame for tests: header + payload, with the
// length stamped.
func buildFrame(id uint64, op dht.OpKind, payload []byte) []byte {
	b := make([]byte, frameHeaderLen+4, frameHeaderLen+4+len(payload))
	binary.BigEndian.PutUint32(b[0:4], uint32(frameHeaderLen+len(payload)))
	binary.BigEndian.PutUint64(b[4:12], id)
	b[12] = byte(op)
	return append(b, payload...)
}

func TestReadFrameBody(t *testing.T) {
	payload := []byte("hello")
	raw := buildFrame(7, dht.OpGet, payload)
	body, err := readFrameBody(bufio.NewReader(bytes.NewReader(raw)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(body[:8]); got != 7 {
		t.Fatalf("id = %d", got)
	}
	if dht.OpKind(body[8]) != dht.OpGet {
		t.Fatalf("op = %d", body[8])
	}
	if !bytes.Equal(body[frameHeaderLen:], payload) {
		t.Fatalf("payload = %q", body[frameHeaderLen:])
	}

	// A buffer is reused when big enough, grown when not.
	buf := make([]byte, 0, 256)
	body, err = readFrameBody(bufio.NewReader(bytes.NewReader(raw)), buf)
	if err != nil {
		t.Fatal(err)
	}
	if &body[0] != &buf[:1][0] {
		t.Error("readFrameBody did not reuse the caller's buffer")
	}
}

func TestReadFrameBodyMalformed(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"short header", []byte{0, 0, 1}, io.ErrUnexpectedEOF},
		{"length below header", []byte{0, 0, 0, 8}, errFrameTooSmall},
		{"zero length", []byte{0, 0, 0, 0}, errFrameTooSmall},
		{"oversized length", []byte{0xff, 0xff, 0xff, 0xff}, errFrameTooLarge},
		{"truncated body", append([]byte{0, 0, 0, 20}, make([]byte, 10)...), io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readFrameBody(bufio.NewReader(bytes.NewReader(tc.raw)), nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestCursorTruncation(t *testing.T) {
	c := cursor{b: []byte{}}
	if _, err := c.u8(); !errors.Is(err, errTruncated) {
		t.Error("u8 on empty should fail")
	}
	if _, err := c.uvarint(); !errors.Is(err, errTruncated) {
		t.Error("uvarint on empty should fail")
	}
	// A length prefix pointing past the end must not read out of bounds.
	c = cursor{b: []byte{200, 1, 'x'}} // claims 200 bytes, has 1
	if _, err := c.lenBytes(); !errors.Is(err, errTruncated) {
		t.Error("lenBytes past end should fail")
	}
	// A batch count exceeding the remaining bytes is rejected outright.
	c = cursor{b: binary.AppendUvarint(nil, 1<<40)}
	if _, err := c.count(); err == nil {
		t.Error("absurd count should fail")
	}
}

func TestTaggedValueRoundTrip(t *testing.T) {
	// Raw []byte: zero serialization, copied out of the frame.
	src := []byte("raw-value")
	b, err := appendValue(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != tagRaw {
		t.Fatalf("tag = %d", b[0])
	}
	v, err := decodeTaggedValue(b)
	if err != nil {
		t.Fatal(err)
	}
	got := v.([]byte)
	if !bytes.Equal(got, src) {
		t.Fatalf("value = %q", got)
	}
	src[0] = 'X' // the decoded value must not alias the frame
	if got[0] == 'X' {
		t.Error("decoded value aliases the input buffer")
	}

	// Any other type has no stored form, and says which type it was.
	if b, err := appendValue(nil, point{1, 2}); b != nil || err == nil || dht.IsTransient(err) || !strings.Contains(err.Error(), "tcpnet.point") {
		t.Errorf("appendValue(struct) = % x, %v; want a permanent error naming the type", b, err)
	}

	// Garbage tags error, the retired gob tag among them.
	for _, tv := range [][]byte{nil, {99, 1, 2}, {tagRetired, 1, 2}, {tagEpoch, 1, tagRetired, 1}} {
		if _, err := decodeTaggedValue(tv); err == nil {
			t.Errorf("decodeTaggedValue(% x) succeeded", tv)
		}
	}
}

// TestServerSurvivesMalformedPeer throws garbage at a live server: bad
// magic, garbage op bytes, truncated payloads, oversized length fields.
// The server must never panic, must answer in-frame errors for in-frame
// garbage, and must keep serving well-formed clients throughout.
func TestServerSurvivesMalformedPeer(t *testing.T) {
	addrs := startServers(t, 1)
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ctx := context.Background()
	if err := c.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	send := func(raw []byte) {
		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
		_, _ = conn.Write(raw)
		// Half-close so the server sees EOF after our bytes, then drain
		// whatever it answered.
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		_, _ = io.Copy(io.Discard, conn)
	}

	send([]byte("GARB"))                                                                                // bad magic: not a frame, not valid gob
	send([]byte(wireMagic))                                                                             // magic then silence
	send(append([]byte(wireMagic), 0xff, 0xff, 0xff, 0xff))                                             // oversized length
	send(append([]byte(wireMagic), 0, 0, 0, 2, 1, 2))                                                   // length below header
	send(append([]byte(wireMagic), buildFrame(1, 99, nil)...))                                          // unknown op
	send(append([]byte(wireMagic), buildFrame(1, dht.OpGet, []byte{200})...))                           // truncated key
	send(append([]byte(wireMagic), buildFrame(1, dht.OpGetBatch, binary.AppendUvarint(nil, 1<<50))...)) // absurd count

	// In-frame garbage answers statusErr without dropping the connection.
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	msg := append([]byte(wireMagic), buildFrame(5, dht.OpGet, []byte{200})...) // truncated key
	msg = append(msg, buildFrame(6, dht.OpPing, nil)...)                       // then a valid ping
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	body, err := readFrameBody(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id := binary.BigEndian.Uint64(body[:8]); id != 5 {
		t.Fatalf("first response id = %d", id)
	}
	if body[frameHeaderLen] != statusErr {
		t.Fatalf("garbage payload answered status %d, want statusErr", body[frameHeaderLen])
	}
	if msg := string(body[frameHeaderLen+1:]); !strings.Contains(msg, "malformed") {
		t.Fatalf("error message = %q", msg)
	}
	body, err = readFrameBody(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id := binary.BigEndian.Uint64(body[:8]); id != 6 {
		t.Fatalf("second response id = %d", id)
	}
	if body[frameHeaderLen] != statusOK {
		t.Fatalf("ping after garbage answered status %d", body[frameHeaderLen])
	}

	// The healthy client still works.
	v, err := c.Get(ctx, "k")
	if err != nil || !bytes.Equal(v.([]byte), []byte("v")) {
		t.Fatalf("Get after garbage peers = %v, %v", v, err)
	}
}

// TestClientSurvivesMalformedServer points a client at a server that
// accepts the handshake, then answers garbage. The client must error —
// transient, so the retry plane can act — and never panic.
func TestClientSurvivesMalformedServer(t *testing.T) {
	pingOK := func(id uint64) []byte {
		return buildFrame(id, dht.OpPing, []byte{statusOK})
	}
	cases := []struct {
		name  string
		reply func(reqID uint64) []byte
	}{
		{"oversized length", func(id uint64) []byte { return []byte{0xff, 0xff, 0xff, 0xff} }},
		{"length below header", func(id uint64) []byte { return []byte{0, 0, 0, 3, 1, 2, 3} }},
		{"empty status", func(id uint64) []byte { return buildFrame(id, dht.OpGet, nil) }},
		{"truncated stream", func(id uint64) []byte { return []byte{0, 0, 0, 20, 0} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					go func(conn net.Conn) {
						defer conn.Close()
						br := bufio.NewReader(conn)
						if _, err := br.Discard(len(wireMagic)); err != nil {
							return
						}
						// Answer the handshake ping honestly...
						body, err := readFrameBody(br, nil)
						if err != nil {
							return
						}
						if _, err := conn.Write(pingOK(binary.BigEndian.Uint64(body[:8]))); err != nil {
							return
						}
						// ...then answer the first real request with garbage.
						body, err = readFrameBody(br, nil)
						if err != nil {
							return
						}
						_, _ = conn.Write(tc.reply(binary.BigEndian.Uint64(body[:8])))
					}(conn)
				}
			}()

			c, err := Dial(context.Background(), ClusterConfig{Seeds: []string{ln.Addr().String()}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			_, err = c.Get(ctx, "k")
			if err == nil {
				t.Fatal("Get against a garbage-speaking server succeeded")
			}
			if errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("client hung on garbage instead of failing: %v", err)
			}
			if errors.Is(err, dht.ErrNotFound) {
				t.Fatalf("garbage mislabelled as a missing key: %v", err)
			}
		})
	}
}
