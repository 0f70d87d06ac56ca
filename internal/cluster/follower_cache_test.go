package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"itag/client"
	"itag/internal/api"
	"itag/internal/chaos"
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
// is stamped X-Itag-Quorum: ok, revalidates export pages on the pushed
// follower with the tags it was last given. A page holding a posted resource
// answers 200 under a new tag with a body byte-identical to the leader's (the
// follower answers from its record cache, its folded rows and its response
// cache, all of which the replicated apply must have invalidated — the row's
// clock advanced — before the ack left). A page that holds none answers 304,
// and the body kept from its last 200 is still byte-identical to what the
// leader serves now: a replicated post retires the pages that show it and no
// other. The leader never honours a tag the follower minted.
func TestFollowerExportEqualsLeader(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta", "gamma"}, func(o *Options) { o.Quorum = true })
	slot, project, tagger := tc.seedProject(5)
	leader, follower := "http://"+slot, "http://"+tc.pushedFollower(slot)
	type page struct {
		path string
		ids  []string // the resources it shows
		etag string   // the follower's tag for body
		body []byte
	}
	// The whole export, then the same five rows two to a page.
	export := "/api/v1/projects/" + project + "/export"
	pages := []*page{{path: export}}
	for path := export + "?limit=2"; path != ""; {
		pg := &page{path: path}
		pages = append(pages, pg)
		var got struct {
			NextCursor string `json:"next_cursor"`
		}
		if _, err := tc.do(http.MethodGet, leader+path, nil, &got); err != nil {
			t.Fatal(err)
		}
		if path = ""; got.NextCursor != "" {
			path = export + "?limit=2&cursor=" + got.NextCursor
		}
	}
	if len(pages) != 4 {
		t.Fatalf("%d pages, want the whole export and three pages of it", len(pages))
	}
	fresh, kept := 0, 0

	// compare revalidates every page after the resources in posted took a
	// post (nil: the first read, no tag to offer).
	compare := func(when string, posted map[string]bool) {
		t.Helper()
		for _, pg := range pages {
			lresp, want := tc.get(leader + pg.path)
			fresp, got := tc.get(follower+pg.path, HeaderRead, ReadFollower, "If-None-Match", pg.etag)
			if lresp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %s = %d on the leader", when, pg.path, lresp.StatusCode)
			}
			if fresp.Header.Get(HeaderServedBy) == "" {
				t.Fatalf("%s: %s was not served by the follower", when, pg.path)
			}
			changed := posted == nil
			for _, id := range pg.ids {
				changed = changed || posted[id]
			}
			if changed {
				etag := fresp.Header.Get("Etag")
				if fresp.StatusCode != http.StatusOK || etag == "" || etag == pg.etag {
					t.Fatalf("%s: %s holds a posted resource and the follower answered %d, ETag %q, to %q",
						when, pg.path, fresp.StatusCode, etag, pg.etag)
				}
				pg.etag, pg.body = etag, got
				var shown struct {
					Items []struct {
						ID string `json:"id"`
					} `json:"items"`
				}
				if err := json.Unmarshal(got, &shown); err != nil {
					t.Fatal(err)
				}
				pg.ids = pg.ids[:0]
				for _, it := range shown.Items {
					pg.ids = append(pg.ids, it.ID)
				}
				fresh++
			} else {
				if fresp.StatusCode != http.StatusNotModified {
					t.Fatalf("%s: %s holds no posted resource (%v not in %v) and the follower answered %d to its own tag",
						when, pg.path, posted, pg.ids, fresp.StatusCode)
				}
				kept++
			}
			// 200 or 304, what the caller now holds is what the leader serves.
			if !bytes.Equal(pg.body, want) {
				t.Fatalf("%s: follower %s (status %d) differs from the leader's\nfollower %s\n  leader %s",
					when, pg.path, fresp.StatusCode, pg.body, want)
			}
			// The leader has never minted that tag, whatever its version.
			if lresp, _ := tc.get(leader+pg.path, "If-None-Match", pg.etag); lresp.StatusCode != http.StatusOK {
				t.Fatalf("%s: the leader answered the follower's validator with %d", when, lresp.StatusCode)
			}
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
	compare("seeded", nil)
	for round := 0; round < 12; round++ {
		posted := make(map[string]bool)
		if round%3 == 2 {
			items := make([]map[string]any, 3)
			for i := range items {
				items[i] = map[string]any{"tagger_id": tagger, "tags": []string{"go", fmt.Sprintf("batch-%d", (round+i)%4)}}
			}
			var out struct {
				Results []struct {
					ResourceID string `json:"resource_id"`
				} `json:"results"`
			}
			resp, err := tc.do(http.MethodPost, leader+"/api/v1/projects/"+project+"/tasks:batch",
				map[string]any{"items": items}, &out)
			acked(resp, err, http.StatusOK)
			for _, r := range out.Results {
				posted[r.ResourceID] = true
			}
		} else {
			var task store.TaskRec
			resp, err := tc.do(http.MethodPost, leader+"/api/v1/projects/"+project+"/tasks",
				map[string]string{"tagger_id": tagger}, &task)
			acked(resp, err, http.StatusCreated)
			resp, err = tc.do(http.MethodPost,
				fmt.Sprintf("%s/api/v1/projects/%s/tasks/%s/submit", leader, project, task.ID),
				map[string][]string{"tags": {"go", fmt.Sprintf("t%d", round%5)}}, nil)
			acked(resp, err, http.StatusOK)
			posted[task.ResourceID] = true
		}
		compare(fmt.Sprintf("round %d", round), posted)
	}
	if fresh == 0 || kept == 0 {
		t.Fatalf("%d pages re-fetched, %d revalidated: want both", fresh, kept)
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

// servedBy notes which node served the last response (X-Itag-Served-By is
// set on follower-served reads only).
type servedBy struct {
	tr   http.RoundTripper
	last string
}

func (s *servedBy) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := s.tr.RoundTrip(req)
	if err == nil {
		s.last = resp.Header.Get(HeaderServedBy)
	}
	return resp, err
}

// TestFreshReplicaRefusesFollowerReads: a follower restarted on an empty
// directory has heard nothing from the slot's owner, so its lag is unknown,
// not zero. Until the first shipment (a probe counts) arrives it must answer
// a follower read with the 421 that sends the SDK to the leader — not with
// 404 not_found from its empty catalog, which the SDK rightly takes for a
// real answer. Once the stream reaches it, it serves.
func TestFreshReplicaRefusesFollowerReads(t *testing.T) {
	sched := chaos.NewSchedule(1)
	booted := make(map[string]Options)
	tc := startCluster(t, []string{"alpha", "beta", "gamma"}, func(o *Options) {
		o.HTTPClient = &http.Client{Transport: chaos.Wrap(o.HTTPClient.Transport, sched, o.Slot)}
		booted[o.Slot] = *o
	})
	slot, project, _ := tc.seedProject(3)
	tc.waitCaughtUp(slot)
	follower := tc.pushedFollower(slot)
	ctx := context.Background()
	sb := &servedBy{tr: tc.tr}
	cc := client.NewCluster([]string{"http://" + slot}, &http.Client{Transport: sb}).WithFollowerReads()
	read := func(when, wantServedBy string) {
		t.Helper()
		info, err := cc.GetProject(ctx, project)
		if err != nil || info.Project.Budget != 500 {
			t.Fatalf("%s: GetProject = budget %d, %v; want 500", when, info.Project.Budget, err)
		}
		if sb.last != wantServedBy {
			t.Fatalf("%s: served by %q, want %q", when, sb.last, wantServedBy)
		}
	}
	read("caught up", follower)

	// The follower comes back with nothing, and the leader cannot reach it.
	tc.tr.Register(follower, nil)
	_ = tc.nodes[follower].Close()
	sched.Faults = []chaos.Fault{{Kind: chaos.KindPartition, From: slot, To: follower, OneWay: true}}
	sched.Start()
	defer sched.Stop()
	o := booted[follower]
	o.Dir, o.Ring = t.TempDir(), tc.nodes[slot].Ring()
	n, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	tc.nodes[follower] = n
	tc.tr.Register(follower, n.Handler())
	fallbacks := n.Status().FollowerFallbacks
	read("restarted empty, unfed", "")
	if got := n.Status().FollowerFallbacks; got != fallbacks+1 {
		t.Fatalf("follower fallbacks %d -> %d, want one counted", fallbacks, got)
	}

	sched.Stop()
	tc.waitCaughtUp(slot)
	waitFor(t, 5*time.Second, "the leader's stream to reach the restarted follower", func() bool {
		return n.ReplicaDB(slot).AppliedSeq() == tc.nodes[slot].DB(slot).AppliedSeq()
	})
	read("fed", follower)
}

// TestFollowerServedRequestsAreCounted: a follower read runs through a
// replica's server stack, and must show in the node's one exposition under
// the same itag_http_* route series every other request of that node counts
// into — with the replica's response cache beside the led slot's, each
// labeled by its slot, and no family rendered twice.
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
	if _, ok := value("itag_respcache_hits_total", "", api.Label{Name: "slot", Value: follower}); !ok {
		t.Errorf("the led slot's itag_respcache_hits_total{slot=%q} is missing", follower)
	}
	if n := strings.Count(text, "# TYPE itag_respcache_hits_total "); n != 1 {
		t.Errorf("itag_respcache_hits_total is declared %d times", n)
	}
}
