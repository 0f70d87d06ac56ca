package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"itag/internal/api"
)

// TestReadShipmentIsReadAll: whatever the declared length says of the body —
// exact, longer, shorter, unknown — readShipment reads what io.ReadAll reads.
func TestReadShipmentIsReadAll(t *testing.T) {
	body := strings.Repeat("0123456789abcdef", 40)
	for _, declared := range []int64{int64(len(body)), 0, 1, int64(len(body)) - 3, int64(len(body)) + 5, -1} {
		r, err := http.NewRequest(http.MethodPost, "http://beta/api/v1/cluster/replicate", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.ContentLength = declared
		got, err := readShipment(r)
		if err != nil || string(got) != body {
			t.Errorf("declared %d: read %d bytes, %v; want all %d", declared, len(got), err, len(body))
		}
	}
}

// TestAckMatchesEncodingJSON: the ack a follower writes is the bytes the
// map it replaced encoded to, and the leader reads it back, or any other
// JSON encoding of it, to the same sequence; what json.Unmarshal refuses,
// and an answer longer than any a follower writes, it refuses.
func TestAckMatchesEncodingJSON(t *testing.T) {
	for _, seq := range []uint64{0, 1, 1 << 40, math.MaxUint64} {
		want, err := api.AppendJSON(nil, map[string]any{"applied": seq})
		if err != nil {
			t.Fatal(err)
		}
		got, err := api.AppendJSON(nil, replicateAck{Applied: seq})
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("ack %d: %q, %v; want %q", seq, got, err, want)
		}
		for _, body := range [][]byte{got, []byte(` { "Applied" : ` + string(got[len(`{"applied":`):len(got)-2]) + "}\n")} {
			ack, err := readAck(bytes.NewReader(body))
			if err != nil || ack.Applied != seq {
				t.Fatalf("readAck(%q) = %d, %v; want %d", body, ack.Applied, err, seq)
			}
		}
	}
	for _, body := range []string{``, `{"applied":-1}`, `{"applied":1} x`} {
		var want replicateAck
		wantErr := json.Unmarshal([]byte(body), &want)
		if _, err := readAck(strings.NewReader(body)); err == nil || wantErr == nil {
			t.Errorf("readAck(%q) = %v, json.Unmarshal %v; want both to fail", body, err, wantErr)
		}
	}
	if _, err := readAck(strings.NewReader(`{"applied":1}` + strings.Repeat(" ", 64))); err == nil {
		t.Error("readAck takes an answer longer than a follower writes")
	}
}
