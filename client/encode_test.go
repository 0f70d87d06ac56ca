package client_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"itag/client"
)

// bodyParity holds the SDK's three task-route request encoders to
// json.Marshal of the maps the SDK always sent, for a tagger ID and tags made
// of a and b: nil tags, empty tags, and items with and without tags.
func bodyParity(t *testing.T, a, b string, n int) {
	t.Helper()
	var tags []string
	switch n % 3 {
	case 1:
		tags = []string{}
	case 2:
		tags = []string{a, b, a + b}
	}
	var items []client.BatchTaskItem
	for i := 0; i < n%4; i++ {
		items = append(items, client.BatchTaskItem{TaggerID: a, Tags: tags}, client.BatchTaskItem{TaggerID: b})
	}
	if n%5 == 1 {
		items = []client.BatchTaskItem{}
	}
	for _, c := range []struct {
		got []byte
		v   any
	}{
		{client.TaggerBody(a), map[string]string{"tagger_id": a}},
		{client.TagsBody(tags), map[string][]string{"tags": tags}},
		{client.ItemsBody(items), map[string][]client.BatchTaskItem{"items": items}},
	} {
		want, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(c.got) != string(want) {
			t.Fatalf("%#v:\nSDK          %s\njson.Marshal %s", c.v, c.got, want)
		}
	}
}

// bodyPieces are the inputs where a string encoder can part from
// encoding/json: HTML characters, quotes, backslashes, control bytes,
// U+2028/2029, non-ASCII and invalid UTF-8.
var bodyPieces = []string{"a", "tag-000002", "<", ">", "&", `"`, `\`, "\x00", "\n", "\x1f", "\u2028", "\u2029", "é", "😀", "\xff", "\xe2\x80"}

// TestRequestBodiesMatchMarshal runs seeded tagger IDs and tags through the
// SDK's request encoders for RequestTask, SubmitTask and BatchTasks.
func TestRequestBodiesMatchMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	piece := func() string {
		s := ""
		for k := r.Intn(4); k > 0; k-- {
			s += bodyPieces[r.Intn(len(bodyPieces))]
		}
		return s
	}
	for i := 0; i < 1000; i++ {
		bodyParity(t, piece(), piece(), r.Intn(60))
	}
}

// FuzzRequestBodies is TestRequestBodiesMatchMarshal over any input.
//
//	go test -run '^$' -fuzz '^FuzzRequestBodies$' -fuzztime 30s ./client
func FuzzRequestBodies(f *testing.F) {
	f.Add("tag-000002", "<cat&dog>", 2)
	f.Add("\xff\u2028", "\x00\"\\", 7)
	f.Add("", "", 0)
	f.Fuzz(func(t *testing.T, a, b string, n int) {
		if n < 0 {
			n = -(n + 1)
		}
		bodyParity(t, a, b, n)
	})
}
