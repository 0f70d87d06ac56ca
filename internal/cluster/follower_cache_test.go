package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"itag/client"
	"itag/internal/api"
	"itag/internal/store"
)

// pushedFollower names the slot's first follower — the one whose watermark
// an X-Itag-Quorum: ok ack waited on.
func (tc *testCluster) pushedFollower(slot string) string {
	tc.t.Helper()
	return tc.nodes[slot].Ring().Followers(slot, 2)[0]
}

// get fetches url raw: status, body and headers, no decoding.
func (tc *testCluster) get(url string, hdr ...string) (*http.Response, []byte) {
	tc.t.Helper()
	resp, err := tc.do(http.MethodGet, url, nil, nil, hdr...)
	if err != nil {
		tc.t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

// TestFollowerExportEqualsLeader works a project on a 3-node quorum ring
// with two-call posts and tasks:batch calls and, after every post whose ack
// is stamped X-Itag-Quorum: ok, reads export pages from the pushed follower:
// each page is byte-identical to the leader's (the follower answers from its
// record cache, its folded rows and its response cache, all of which the
// replicated apply must have invalidated before the ack left), and
// revalidating with the ETag of the page read before the post draws a fresh
// 200, never a 304.
func TestFollowerExportEqualsLeader(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta", "gamma"}, func(o *Options) { o.Quorum = true })
	slot, project, tagger := tc.seedProject(5)
	leader, follower := "http://"+slot, "http://"+tc.pushedFollower(slot)
	pages := []string{
		"/api/v1/projects/" + project + "/export",
		"/api/v1/projects/" + project + "/export?limit=2",
	}
	etags := make(map[string]string)

	compare := func(when string) {
		t.Helper()
		for _, page := range pages {
			lresp, want := tc.get(leader + page)
			fresp, got := tc.get(follower+page, HeaderRead, ReadFollower, "If-None-Match", etags[page])
			if lresp.StatusCode != http.StatusOK || fresp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %s = %d on the leader, %d on the follower revalidating %q",
					when, page, lresp.StatusCode, fresp.StatusCode, etags[page])
			}
			if fresp.Header.Get(HeaderServedBy) == "" {
				t.Fatalf("%s: %s was not served by the follower", when, page)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: follower %s differs from the leader's\nfollower %s\n  leader %s", when, page, got, want)
			}
			etag := fresp.Header.Get("Etag")
			if etag == "" || etag == etags[page] {
				t.Fatalf("%s: follower %s carries ETag %q after %q", when, page, etag, etags[page])
			}
			// Nothing was written since: the follower's own validator holds.
			if again, _ := tc.get(follower+page, HeaderRead, ReadFollower, "If-None-Match", etag); again.StatusCode != http.StatusNotModified {
				t.Fatalf("%s: follower revalidation of %s = %d, want 304", when, page, again.StatusCode)
			}
			// The leader has never minted that tag, whatever its version.
			if lresp, _ := tc.get(leader+page, "If-None-Match", etag); lresp.StatusCode != http.StatusOK {
				t.Fatalf("%s: the leader answered the follower's validator with %d", when, lresp.StatusCode)
			}
			etags[page] = etag
		}
	}
	acked := func(resp *http.Response, err error, want int) {
		t.Helper()
		if err != nil || resp.StatusCode != want {
			t.Fatalf("write: %v (status %v)", err, resp.Status)
		}
		if got := resp.Header.Get(HeaderQuorum); got != QuorumOK {
			t.Fatalf("X-Itag-Quorum = %q, want %q", got, QuorumOK)
		}
	}

	tc.waitCaughtUp(slot)
	compare("seeded")
	for round := 0; round < 12; round++ {
		if round%3 == 2 {
			items := make([]map[string]any, 3)
			for i := range items {
				items[i] = map[string]any{"tagger_id": tagger, "tags": []string{"go", fmt.Sprintf("batch-%d", (round+i)%4)}}
			}
			resp, err := tc.do(http.MethodPost, leader+"/api/v1/projects/"+project+"/tasks:batch",
				map[string]any{"items": items}, nil)
			acked(resp, err, http.StatusOK)
		} else {
			var task store.TaskRec
			resp, err := tc.do(http.MethodPost, leader+"/api/v1/projects/"+project+"/tasks",
				map[string]string{"tagger_id": tagger}, &task)
			acked(resp, err, http.StatusCreated)
			resp, err = tc.do(http.MethodPost,
				fmt.Sprintf("%s/api/v1/projects/%s/tasks/%s/submit", leader, project, task.ID),
				map[string][]string{"tags": {"go", fmt.Sprintf("t%d", round%5)}}, nil)
			acked(resp, err, http.StatusOK)
		}
		compare(fmt.Sprintf("round %d", round))
	}
}

// switchingTransport sends every request to whichever node it currently
// points at, whatever host the URL names — one SDK client, one validator
// cache, two nodes — and notes which node minted each ETag it sees.
type switchingTransport struct {
	t      *testing.T
	tr     http.RoundTripper
	host   string
	minted map[string]string // ETag → node that issued it

	own304, foreign int
}

func (s *switchingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.URL.Host = s.host
	resp, err := s.tr.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if inm := req.Header.Get("If-None-Match"); inm != "" {
		switch notModified := resp.StatusCode == http.StatusNotModified; {
		case s.minted[inm] != s.host:
			s.foreign++
			if notModified {
				s.t.Errorf("%s answered 304 to %s, a validator %s minted", s.host, inm, s.minted[inm])
			}
		case notModified:
			s.own304++
		}
	}
	if etag := resp.Header.Get("Etag"); etag != "" {
		s.minted[etag] = s.host
	}
	return resp, nil
}

// TestConditionalClientAcrossNodes reads one key through one client.Client
// — so one validator cache — alternately from a
// follower and from the slot's leader while the leader takes writes. Each
// node keeps its own response cache counting versions from zero — and an
// idle manual project's body is byte-for-byte the same length on both — so
// a validator is only good on the node that minted it: offered to the other
// node it draws a 200, and what the SDK decodes is always the answering
// node's own body, never the other node's cached one.
func TestConditionalClientAcrossNodes(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta", "gamma"}, nil)
	slot, project, _ := tc.seedProject(3)
	tc.waitCaughtUp(slot)
	follower := tc.pushedFollower(slot)
	ctx := context.Background()

	sw := &switchingTransport{t: t, tr: tc.tr, host: follower, minted: make(map[string]string)}
	c := client.New("http://cluster", &http.Client{Transport: sw}).
		WithHeader(HeaderRead, ReadFollower)
	budget := 500
	for round := 0; round < 6; round++ {
		for _, host := range []string{follower, follower, slot, slot} {
			sw.host = host
			info, err := c.GetProject(ctx, project)
			if err != nil || info.Project.Budget != budget {
				t.Fatalf("round %d: GetProject on %s = budget %d, %v; want %d", round, host, info.Project.Budget, err, budget)
			}
			if _, err := c.Export(ctx, project, "", 0); err != nil {
				t.Fatalf("round %d: Export on %s: %v", round, host, err)
			}
		}
		if resp, err := tc.do(http.MethodPost, "http://"+slot+"/api/v1/projects/"+project+"/budget",
			map[string]int{"extra": 100}, nil); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("add budget: %v (status %v)", err, resp.Status)
		}
		budget += 100
		tc.waitCaughtUp(slot)
	}
	if sw.own304 == 0 || sw.foreign == 0 {
		t.Fatalf("%d revalidations answered 304 by the minting node, %d validators offered to the other node: want both", sw.own304, sw.foreign)
	}
}

// TestFollowerServedRequestsAreCounted: a follower read runs through a
// replica's server stack, and must show in the node's one exposition under
// the same itag_http_* route series every other request of that node counts
// into — with the replica's response cache beside the led slot's, told
// apart by a slot label, and no family rendered twice.
func TestFollowerServedRequestsAreCounted(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta", "gamma"}, nil)
	slot, project, _ := tc.seedProject(3)
	tc.waitCaughtUp(slot)
	follower := tc.pushedFollower(slot)
	const reads = 5
	for i := 0; i < reads; i++ {
		for _, path := range []string{"", "/export"} {
			if resp, _ := tc.get("http://"+follower+"/api/v1/projects/"+project+path, HeaderRead, ReadFollower); resp.StatusCode != http.StatusOK {
				t.Fatalf("follower read %s: %d", path, resp.StatusCode)
			}
		}
	}

	rec := httptest.NewRecorder()
	tc.nodes[follower].PromHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	fams, err := api.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if err := api.CheckHistograms(fams); err != nil {
		t.Fatal(err)
	}
	value := func(family, suffix string, labels ...api.Label) (float64, bool) {
		for _, f := range fams {
			if f.Name != family {
				continue
			}
		samples:
			for _, s := range f.Samples {
				if s.Suffix != suffix || len(s.Labels) != len(labels) {
					continue
				}
				for i, l := range labels {
					if s.Labels[i] != l {
						continue samples
					}
				}
				return s.Value, true
			}
		}
		return 0, false
	}
	for _, route := range []string{"GET /api/v1/projects/{id}", "GET /api/v1/projects/{id}/export"} {
		got, ok := value("itag_http_request_duration_seconds", "_count", api.Label{Name: "route", Value: route})
		if !ok || got != reads {
			t.Errorf("itag_http_request_duration_seconds_count{route=%q} = %v (present: %v) on the follower's node, want %d", route, got, ok, reads)
		}
	}
	// First read of each route fills the replica's cache, the rest hit it.
	if hits, ok := value("itag_respcache_hits_total", "", api.Label{Name: "slot", Value: slot}); !ok || hits != 2*(reads-1) {
		t.Errorf("itag_respcache_hits_total{slot=%q} = %v (present: %v), want %d", slot, hits, ok, 2*(reads-1))
	}
	if _, ok := value("itag_respcache_hits_total", ""); !ok {
		t.Error("the led slot's unlabeled itag_respcache_hits_total is gone")
	}
	if n := strings.Count(text, "# TYPE itag_respcache_hits_total "); n != 1 {
		t.Errorf("itag_respcache_hits_total is declared %d times", n)
	}
}
