package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"lht/internal/dht"
)

// buildFrame assembles a raw request frame for tests: the length, the id
// and the op, then the payload.
func buildFrame(id uint64, op dht.OpKind, payload []byte) []byte {
	return buildReply(id, append([]byte{byte(op)}, payload...))
}

// buildReply assembles a raw reply frame for tests: the length and the
// id, then the body, which starts with the status byte.
func buildReply(id uint64, body []byte) []byte {
	rest := append(binary.AppendUvarint(nil, id), body...)
	return append(binary.AppendUvarint(nil, uint64(len(rest))), rest...)
}

// splitFrame cuts a well-formed frame into its id varint's bytes and its
// body.
func splitFrame(frame []byte) (id, body []byte) {
	_, n := binary.Uvarint(frame)
	_, k := binary.Uvarint(frame[n:])
	return frame[n : n+k], frame[n+k:]
}

// replyBody is a reply frame's body: its status and payload.
func replyBody(reply []byte) []byte {
	_, body := splitFrame(reply)
	return body
}

// serve has s answer the request frame req, as a connection would, and
// returns the reply frame. A non-nil out is the reply buffer, kept grown
// across calls.
func serve(s *Server, req []byte, out *[]byte) []byte {
	if out == nil {
		out = new([]byte)
	}
	id, body := splitFrame(req)
	buf, off := s.applyFrame(id, body, (*out)[:0])
	*out = buf
	return buf[off:]
}

// readFrame reads one frame from br: its id and its body.
func readFrame(br *bufio.Reader) (id uint64, body []byte, err error) {
	f := frameReader{br: br}
	idb, bp, err := f.next()
	if err != nil {
		return 0, nil, err
	}
	return frameID(idb), *bp, nil
}

func TestReadFrameBody(t *testing.T) {
	payload := []byte("hello")
	for _, want := range []uint64{7, 300, 1 << 40} {
		id, body, err := readFrame(bufio.NewReader(bytes.NewReader(buildFrame(want, dht.OpGet, payload))))
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("id = %d", id)
		}
		if dht.OpKind(body[0]) != dht.OpGet || !bytes.Equal(body[1:], payload) {
			t.Fatalf("body = %q", body)
		}
	}

	// With keep set, every body is read into that one buffer: its array
	// when big enough, grown when not.
	arr := make([]byte, 0, 256)
	keep := arr
	raw := append(buildFrame(1, dht.OpGet, payload), buildFrame(2, dht.OpGet, make([]byte, 300))...)
	f := frameReader{br: bufio.NewReader(bytes.NewReader(raw)), keep: &keep}
	if _, body, err := f.next(); err != nil || body != &keep || &keep[0] != &arr[:1][0] || !bytes.Equal(keep[1:], payload) {
		t.Fatalf("a body that fits was not read into keep's array: %q, %v", keep, err)
	}
	if _, body, err := f.next(); err != nil || body != &keep || len(keep) != 301 {
		t.Fatalf("a body past keep's capacity: %d bytes, %v", len(keep), err)
	}
}

// stutterReader hands out one byte a read, and a deadline error before
// every byte: a frame reader must resume a frame cut at any byte.
type stutterReader struct {
	b   []byte
	cut bool
}

func (r *stutterReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	if r.cut = !r.cut; r.cut {
		return 0, os.ErrDeadlineExceeded
	}
	p[0], r.b = r.b[0], r.b[1:]
	return 1, nil
}

// TestFrameReaderResumesAnywhere cuts frames whose length and id varints
// run to several bytes at every byte: the reader keeps what it has read,
// and each frame comes out whole, once.
func TestFrameReaderResumesAnywhere(t *testing.T) {
	var stream []byte
	ids := []uint64{0, 127, 128, 16384, 1<<63 + 5}
	for i, id := range ids {
		stream = append(stream, buildFrame(id, dht.OpPut, bytes.Repeat([]byte{byte(i)}, 200*i))...)
	}
	f := frameReader{br: bufio.NewReaderSize(&stutterReader{b: stream}, 16)}
	for i, want := range ids {
		cuts := 0
		for {
			id, body, err := f.next()
			if errors.Is(err, os.ErrDeadlineExceeded) {
				cuts++
				continue
			}
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if got := frameID(id); got != want || len(*body) != 1+200*i || (*body)[0] != byte(dht.OpPut) {
				t.Fatalf("frame %d: id %d and %d body bytes, want id %d and %d", i, got, len(*body), want, 1+200*i)
			}
			break
		}
		if cuts < 3 {
			t.Errorf("frame %d was cut %d times, want one a byte at least", i, cuts)
		}
	}
	if _, _, err := f.next(); err != io.EOF {
		t.Errorf("after the last frame: %v, want EOF", err)
	}
}

func TestReadFrameBodyMalformed(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"short header", []byte{0x80, 0x80}, io.ErrUnexpectedEOF},
		{"zero length", []byte{0}, errFrameTooSmall},
		{"length below header", []byte{1, 7}, errFrameTooSmall},
		{"five-byte length", []byte{0x80, 0x80, 0x80, 0x80, 0}, errFrameTooLarge},
		{"oversized length", binary.AppendUvarint(nil, maxFrameLen+1), errFrameTooLarge},
		{"id runs past the end", []byte{3, 0x80, 0x80, 0x80, 1}, errFrameTooSmall},
		{"no op after a two-byte id", []byte{2, 0x81, 1}, errFrameTooSmall},
		{"id over 64 bits", append([]byte{20}, append(bytes.Repeat([]byte{0xff}, 9), 2, 1)...), errFrameID},
		{"truncated id", []byte{5, 0x80}, io.ErrUnexpectedEOF},
		{"truncated body", append([]byte{20, 1}, make([]byte, 10)...), io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := frameReader{br: bufio.NewReader(bytes.NewReader(tc.raw))}
			_, _, err := f.next()
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			// A header refused is refused before a buffer is taken.
			if f.body != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("the refused header took a buffer")
			}
		})
	}
}

// TestFrameHeaderBytes pins the header's size on the wire: a raw Get's
// request crosses as its payload plus the length byte, the id's varint
// and the op, and its reply as its body plus the length byte and the id's
// varint — at a connection's first id, and at the first ids whose
// varints take two and three bytes. An id is a slot, not a serial number:
// after 20 000 Gets one at a time, the next still crosses as one byte.
func TestFrameHeaderBytes(t *testing.T) {
	ctx := context.Background()
	addr := startServers(t, 1)[0]
	value := bytes.Repeat([]byte("v"), 100) // every frame's length is one byte
	w, err := Dial(ctx, ClusterConfig{Seeds: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Put(ctx, "k", value); err != nil {
		t.Fatal(err)
	}
	dialer := &byteDialer{addrs: map[string]string{"node": addr}}
	c, err := Dial(ctx, ClusterConfig{Seeds: []string{"node"}, PoolSize: 1, Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := len(appendKey(nil, "k"))
	body := 1 + 1 + len(value) // status, tagRaw, value
	// get checks one Get's bytes both ways at request id id.
	get := func(id uint64) {
		t.Helper()
		n, read := dialer.n.Load(), dialer.read.Load()
		if v, err := c.Get(ctx, "k"); err != nil || !bytes.Equal(v.([]byte), value) {
			t.Fatalf("Get at id %d = %v, %v", id, v, err)
		}
		idLen := len(binary.AppendUvarint(nil, id))
		reply := dialer.read.Load() - read
		if req, want := dialer.n.Load()-n-reply, payload+2+idLen; req != int64(want) {
			t.Errorf("id %d: the request crossed as %d bytes, want %d", id, req, want)
		}
		if want := body + 1 + idLen; reply != int64(want) {
			t.Errorf("id %d: the reply crossed as %d bytes, want %d", id, reply, want)
		}
	}
	for i := 0; i < 20000; i++ {
		if _, err := c.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	get(1)
	for _, id := range []uint64{1, 128, 16384} {
		setNextID(t, c, id)
		get(id)
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
	send(append([]byte(wireMagic), 0xff, 0xff, 0xff, 0xff, 1))                                          // five-byte length
	send(append([]byte(wireMagic), 1, 1, 2))                                                            // length below header
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
	id, body, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if id != 5 {
		t.Fatalf("first response id = %d", id)
	}
	if body[0] != statusErr {
		t.Fatalf("garbage payload answered status %d, want statusErr", body[0])
	}
	if msg := string(body[1:]); !strings.Contains(msg, "malformed") {
		t.Fatalf("error message = %q", msg)
	}
	id, body, err = readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if id != 6 {
		t.Fatalf("second response id = %d", id)
	}
	if body[0] != statusOK {
		t.Fatalf("ping after garbage answered status %d", body[0])
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
		return buildReply(id, []byte{statusOK})
	}
	cases := []struct {
		name  string
		reply func(reqID uint64) []byte
	}{
		{"oversized length", func(id uint64) []byte { return []byte{0xff, 0xff, 0xff, 0xff, 1} }},
		{"length below header", func(id uint64) []byte { return []byte{1, 1, 2, 3} }},
		{"id runs past the end", func(id uint64) []byte { return []byte{2, 0x81, 0x01} }},
		{"empty status", func(id uint64) []byte { return buildReply(id, []byte{}) }},
		{"truncated stream", func(id uint64) []byte { return []byte{20, 1} }},
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
						id, _, err := readFrame(br)
						if err != nil {
							return
						}
						if _, err := conn.Write(pingOK(id)); err != nil {
							return
						}
						// ...then answer the first real request with garbage.
						id, _, err = readFrame(br)
						if err != nil {
							return
						}
						_, _ = conn.Write(tc.reply(id))
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
