package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"itag/internal/api"
	"itag/internal/errs"
)

// TestExchangeWireForm holds an Exchange to the wire form docs/API.md
// describes, against a follower written from that description alone: each
// frame a 33-byte header (format, from, applied, ring version, payload
// length, big-endian) and its payload, each reply 17 bytes (an ack: 'A',
// applied, ring version), and a refusal — 'E', ring version, status, then
// the error envelope — ending the exchange as a *Refusal of the envelope's
// code and category.
func TestExchangeWireForm(t *testing.T) {
	var got []Shipment
	follower := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("slot") != "alpha" || r.Header.Get(HeaderFrom) != "http://alpha" || r.Header.Get(HeaderRingVersion) != "7" {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		for {
			head := make([]byte, 33)
			if _, err := io.ReadFull(r.Body, head); err != nil {
				return
			}
			sh := Shipment{Format: head[0], From: binary.BigEndian.Uint64(head[1:]), Applied: binary.BigEndian.Uint64(head[9:]),
				RingVersion: binary.BigEndian.Uint64(head[17:]), Payload: make([]byte, binary.BigEndian.Uint64(head[25:]))}
			if _, err := io.ReadFull(r.Body, sh.Payload); err != nil {
				return
			}
			got = append(got, sh)
			reply := make([]byte, 17)
			if sh.Format == 'X' {
				reply[0] = 'E'
				binary.BigEndian.PutUint64(reply[1:], 9)
				binary.BigEndian.PutUint64(reply[9:], http.StatusBadRequest)
				w.Write(reply)
				io.WriteString(w, `{"error":{"code":"corruption","message":"bad frame"}}`+"\n")
				return
			}
			reply[0] = 'A'
			binary.BigEndian.PutUint64(reply[1:], sh.From+uint64(bytes.Count(sh.Payload, []byte("\n"))))
			binary.BigEndian.PutUint64(reply[9:], 8)
			w.Write(reply)
			w.(http.Flusher).Flush()
		}
	})
	tr := NewHandlerTransport()
	tr.Register("beta", follower)
	x, err := OpenExchange(context.Background(), tr, "http://beta", "alpha", "http://alpha", 7)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	big := strings.Repeat("r\n", 40<<10) // past the frame writer's buffer
	want := []Shipment{
		{Format: FormatFrames, From: 0, Applied: 3, RingVersion: 7},
		{Format: FormatFrames, From: 0, Applied: 3, RingVersion: 7, Payload: []byte("a\nb\nc\n")},
		{Format: FormatSnapshot, From: 3, Applied: 1 << 40, RingVersion: 1<<64 - 1, Payload: []byte(big)},
	}
	for i, sh := range want {
		ack, err := x.Ship(sh)
		if wantAck := (Ack{Applied: sh.From + uint64(bytes.Count(sh.Payload, []byte("\n"))), RingVersion: 8}); err != nil || ack != wantAck {
			t.Fatalf("shipment %d: ack %+v, %v; want %+v", i, ack, err, wantAck)
		}
		if g := got[i]; g.Format != sh.Format || g.From != sh.From || g.Applied != sh.Applied || g.RingVersion != sh.RingVersion || !bytes.Equal(g.Payload, sh.Payload) {
			t.Fatalf("shipment %d reached the follower as {%q %d %d %d, %d bytes}, want {%q %d %d %d, %d bytes}", i,
				g.Format, g.From, g.Applied, g.RingVersion, len(g.Payload), sh.Format, sh.From, sh.Applied, sh.RingVersion, len(sh.Payload))
		}
	}
	ack, err := x.Ship(Shipment{Format: 'X', Payload: []byte("?")})
	var refused *Refusal
	if !errors.As(err, &refused) || refused.Status != http.StatusBadRequest || refused.Code != "corruption" ||
		refused.RingVersion != 9 || ack.RingVersion != 9 || errs.CategoryOf(err) != errs.CategoryCorruption {
		t.Fatalf("a refused frame: ack %+v, %v (%#v); want a 400 corruption refusal at ring v9", ack, err, refused)
	}
	if !strings.Contains(err.Error(), "bad frame") {
		t.Fatalf("the refusal %q does not carry the envelope's message", err)
	}
}

// TestRefusalsCarryTheEnvelope: a follower refuses an exchange at its opening
// with an HTTP error and a shipment on it with a refusal reply. The same
// cause reaches the sender as the same *Refusal either way: status, code,
// ring version, category and message.
func TestRefusalsCarryTheEnvelope(t *testing.T) {
	n := &Node{kit: &api.Kit{MapError: mapClusterErr}}
	cause := notOwner("alpha", "http://gamma", 3, "http://alpha", 2)
	opening := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderRingVersion, "3")
		w.Header().Set("X-Request-Id", "r1")
		n.kit.WriteError(w, r, cause)
	})
	inStream := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-Id", "r1")
		rc := http.NewResponseController(w)
		w.WriteHeader(http.StatusOK)
		rc.Flush()
		head := make([]byte, frameHeaderLen)
		if _, err := io.ReadFull(r.Body, head); err == nil {
			n.refuse(w, r, rc, 3, cause)
		}
	})
	openTr, streamTr := NewHandlerTransport(), NewHandlerTransport()
	openTr.Register("beta", opening)
	streamTr.Register("beta", inStream)

	_, openErr := OpenExchange(context.Background(), openTr, "http://beta", "alpha", "http://alpha", 2)
	x, err := OpenExchange(context.Background(), streamTr, "http://beta", "alpha", "http://alpha", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	_, shipErr := x.Ship(Shipment{Format: FormatFrames})
	var a, b *Refusal
	if !errors.As(openErr, &a) || !errors.As(shipErr, &b) {
		t.Fatalf("refusals: at the opening %v, in the stream %v; want both a *Refusal", openErr, shipErr)
	}
	if a.Status != http.StatusMisdirectedRequest || a.Code != api.CodeNotOwner || a.RingVersion != 3 ||
		a.Status != b.Status || a.Code != b.Code || a.RingVersion != b.RingVersion ||
		openErr.Error() != shipErr.Error() || errs.CategoryOf(openErr) != errs.CategoryOf(shipErr) {
		t.Fatalf("the opening's refusal %#v (%v) and the stream's %#v (%v) differ", a, openErr, b, shipErr)
	}
}
