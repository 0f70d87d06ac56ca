// Package client is the typed Go SDK for the iTag v1 HTTP API. It covers
// the whole /api/v1 surface — registration, project lifecycle, the manual
// tagging flow, the high-fanout batch endpoints, cursor pagination, the
// SSE telemetry stream and the metrics snapshot — so a load generator or
// an integration drives the server without hand-rolling HTTP.
//
//	c := client.New("http://localhost:8080", nil)
//	provider, _ := c.RegisterProvider(ctx, "alice")
//	project, _ := c.CreateProject(ctx, client.CreateProjectReq{
//	    ProviderID: provider, Name: "demo", Budget: 500, Simulate: true,
//	})
//	_ = c.StartProject(ctx, project)
//	stream, _ := c.StreamEvents(ctx, project)
//	for ev := range stream.C { ... }
//
// Errors from the server are returned as *APIError carrying the HTTP
// status, the machine-readable code and the request id, so callers switch
// on codes instead of parsing messages.
//
// GETs revalidate by default: where the server sends an ETag (the project
// dashboard, export pages and resource screens) the Client keeps the
// validator and the decoded response, sends If-None-Match next time, and on
// a 304 hands back a copy of what it kept — nothing read, nothing decoded.
// A ClusterClient does the same across nodes, and offers a validator only to
// the node that minted it. See New and NewCluster.
//
// A 200 of those three dashboard types (ProjectInfo, ExportPage,
// ResourceStatus) and of the tagger's Task and BatchTasksResp is decoded
// directly, without reflection, with every string cut from one copy of the
// body; any body shaped other than the way the server writes them (an escaped
// string, an unknown key, ...) is decoded by encoding/json, which decodes
// every other response. The request bodies of RequestTask, SubmitTask and
// BatchTasks are encoded directly too, to json.Marshal's bytes.
//
// Every call reads its response to EOF, including the ones that decode
// nothing (SubmitTask, JudgePost, AddBudget, ...), so the transport keeps the
// connection and the next call reuses it instead of dialing: a Client holds
// one keep-alive connection per server per concurrent caller. A fleet of
// callers sharing one Client should size its transport's MaxIdleConnsPerHost
// to their number; http.DefaultTransport keeps only 2 idle per host, so 8
// workers × 100 tagger rounds through New(base, nil) open about 30
// connections instead of 8 (and about 860 when every submit dropped its
// connection).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"itag/internal/wire"
)

// APIError is a non-2xx v1 response, decoded from the error envelope.
type APIError struct {
	Status    int    `json:"-"`
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
	// OwnerHint is the owning node's address from X-Itag-Owner, set on
	// CodeNotOwner responses from a cluster node.
	OwnerHint string `json:"-"`
	// RetryAfter is the server's Retry-After header (both the
	// delta-seconds and HTTP-date forms), zero when absent. The retry
	// loop uses it as a floor under its own backoff; callers handling
	// errors manually should do the same before resending.
	RetryAfter time.Duration `json:"-"`
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("itag: %s (%d %s, rid=%s)", e.Message, e.Status, e.Code, e.RequestID)
}

// Well-known error codes (mirror internal/api; documented in docs/API.md).
const (
	CodeInvalidRequest  = "invalid_request"
	CodeInvalidArgument = "invalid_argument"
	CodeNotFound        = "not_found"
	CodeConflict        = "conflict"
	CodeProjectRunning  = "project_running"
	CodeInvalidRole     = "invalid_role"
	CodeExhausted       = "exhausted"
	CodeRateLimited     = "resource_exhausted"
	CodeIOFailure       = "io_failure"
	CodeCorruption      = "corruption"
	CodeBatchTooLarge   = "batch_too_large"
	CodeNotOwner        = "not_owner"
	CodeUnavailable     = "unavailable"
	CodeTimeout         = "timeout"
	CodeCanceled        = "canceled"
	CodeInternal        = "internal"
)

// Client talks to one itagd server.
type Client struct {
	base  string
	http  *http.Client
	hdr   http.Header // extra headers sent on every request (nil = none)
	retry retryPolicy
	cache *validatorCache // keyed by base + path: a ClusterClient's node clients share one
}

// New builds a Client for the server at base (e.g. "http://localhost:8080").
// httpClient may be nil for http.DefaultClient.
//
// The Client revalidates: a GET whose last 200 carried an ETag (today
// GetProject, Export and GetResource) is sent with If-None-Match, and when
// the server answers 304 Not Modified the call returns a copy of the
// response it decoded last time — indistinguishable from a fresh fetch,
// without the transfer, the read or the decode. The server re-checks the
// validator on every call, and a 304 certifies that nothing the body shows
// was written since, so a result is never older than what was acknowledged
// before the call. What a 304 returns shares no mutable memory with the
// Client or with any other call's result: edit it freely. Retention is
// bounded at 8 MiB of response bytes per Client (copies made by WithHeader
// and WithRetry share it); a response larger than that is fetched in full
// every time. Calls whose responses carry no ETag are untouched. What is
// kept is keyed by the server's address as well as the path: an ETag is
// scoped to the response cache that minted it.
//
// Every response is read to EOF, so each concurrent caller keeps one
// keep-alive connection to the server; give httpClient a transport whose
// MaxIdleConnsPerHost covers the callers sharing the Client (see the package
// doc).
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), http: httpClient, retry: defaultRetry, cache: &validatorCache{}}
}

// WithHeader returns a copy of the client that sends the header on every
// request (e.g. X-Itag-Read: follower for cluster follower reads).
func (c *Client) WithHeader(key, value string) *Client {
	nc := *c
	nc.hdr = c.hdr.Clone()
	if nc.hdr == nil {
		nc.hdr = http.Header{}
	}
	nc.hdr.Set(key, value)
	return &nc
}

// WithRetry returns a copy of the client using the given retry budget:
// attempts total tries (minimum 1) with jittered exponential backoff
// starting at base. See retryPolicy for what is considered retryable.
func (c *Client) WithRetry(attempts int, base time.Duration) *Client {
	nc := *c
	nc.retry = retryPolicy{attempts: attempts, base: base}
	return &nc
}

// do sends one JSON exchange; out may be nil to discard the body. The
// request body is marshaled once so retries can resend it; a rawBody is sent
// as it is.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	payload, direct := in.(rawBody)
	if in != nil && !direct {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return fmt.Errorf("itag: encode request: %w", err)
		}
	}
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, payload, in != nil, out)
		if err == nil || !c.retry.shouldRetry(method, err, attempt) {
			return err
		}
		var floor time.Duration
		var ae *APIError
		if errors.As(err, &ae) {
			floor = ae.RetryAfter // server-advertised delay wins over local backoff
		}
		if werr := c.retry.wait(ctx, attempt, floor); werr != nil {
			return err // context ended while backing off: report the last failure
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, hasBody bool, out any) error {
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(payload)
	}
	target := c.base + path // the request URL, and the validator cache's key
	req, err := http.NewRequestWithContext(ctx, method, target, body)
	if err != nil {
		return err
	}
	for k, vs := range c.hdr {
		req.Header[k] = vs
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	// Revalidate with the validator this node minted for this path (an ETag
	// means nothing to another node's response cache), and hold on to the
	// entry: a concurrent call may replace it in the cache, but a 304 always
	// refers to the validator THIS request sent, so the entry in hand is the
	// response it certified.
	var kept *validated
	revalidates := method == http.MethodGet && out != nil
	if revalidates {
		if kept = c.cache.get(target); kept != nil && reflect.TypeOf(kept.value) == reflect.TypeOf(out) {
			req.Header.Set("If-None-Match", kept.etag)
		} else {
			kept = nil
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if kept != nil && resp.StatusCode == http.StatusNotModified {
		copyResponse(out, kept.value)
		return nil
	}
	if resp.StatusCode >= 400 {
		return decodeAPIError(resp)
	}
	if out == nil {
		// Read to EOF all the same: the transport drops a connection whose body
		// is closed unread, and the next call would dial. The server writes the
		// status after its commit, so a body that fails to arrive does not undo
		// a 2xx — reporting it would invite a retry the server refuses.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxUnreadBody))
		return nil
	}
	// One read into a pooled buffer, one decode. Content-Length presizes the
	// buffer only up to what the pool keeps: the header is the server's (or a
	// proxy's) claim, and a larger body grows the buffer as it arrives.
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	if n := resp.ContentLength; n > 0 && n <= maxPooledBody {
		buf.Grow(int(n))
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("itag: read %s %s response: %w", method, path, err)
	}
	if err := decode(buf.Bytes(), out); err != nil {
		return fmt.Errorf("itag: decode %s %s response: %w", method, path, err)
	}
	if revalidates {
		if etag := resp.Header.Get("Etag"); etag != "" {
			c.cache.put(target, etag, out, int64(buf.Len()))
		}
	}
	return nil
}

// rawBody is a request body the SDK encodes without reflection: the bytes
// json.Marshal writes for the value it stands for (TestRequestBodiesMatchMarshal
// holds each encoder below to that).
type rawBody []byte

// taggerBody is json.Marshal(map[string]string{"tagger_id": taggerID}).
func taggerBody(taggerID string) rawBody {
	e := wire.Enc{B: make([]byte, 0, 16+len(taggerID))}
	e.Str(`{"tagger_id":`, taggerID)
	return append(e.B, '}')
}

// tagsBody is json.Marshal(map[string][]string{"tags": tags}).
func tagsBody(tags []string) rawBody {
	n := 12
	for _, t := range tags {
		n += 3 + len(t)
	}
	e := wire.Enc{B: make([]byte, 0, n)}
	e.Strings(`{"tags":`, tags)
	return append(e.B, '}')
}

// itemsBody is json.Marshal(map[string][]BatchTaskItem{"items": items}).
func itemsBody(items []BatchTaskItem) rawBody {
	n := 16
	for _, it := range items {
		n += 24 + len(it.TaggerID)
		for _, t := range it.Tags {
			n += 3 + len(t)
		}
	}
	e := wire.Enc{B: append(make([]byte, 0, n), `{"items":`...)}
	if items == nil {
		return append(e.B, `null}`...)
	}
	e.B = append(e.B, '[')
	for i, it := range items {
		if i > 0 {
			e.B = append(e.B, ',')
		}
		e.Str(`{"tagger_id":`, it.TaggerID)
		if len(it.Tags) > 0 {
			e.Strings(`,"tags":`, it.Tags)
		}
		e.B = append(e.B, '}')
	}
	return append(e.B, "]}"...)
}

// bodyPool holds response read buffers; one that grew past maxPooledBody
// (a limit=0 export of a large project) is left to the collector.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// maxUnreadBody bounds what is read of a body nobody decodes (a 2xx to a call
// that wants none) or only skims (an error envelope). A longer one costs its
// connection, not an unbounded read.
const maxUnreadBody = 1 << 16

func decodeAPIError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxUnreadBody))
	var env struct {
		Error *APIError `json:"error"`
	}
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	if err := json.Unmarshal(raw, &env); err == nil && env.Error != nil {
		env.Error.Status = resp.StatusCode
		if env.Error.RequestID == "" {
			env.Error.RequestID = resp.Header.Get("X-Request-Id")
		}
		env.Error.OwnerHint = resp.Header.Get("X-Itag-Owner")
		env.Error.RetryAfter = retryAfter
		return env.Error
	}
	return &APIError{
		Status:     resp.StatusCode,
		Code:       CodeInternal,
		Message:    strings.TrimSpace(string(raw)),
		RequestID:  resp.Header.Get("X-Request-Id"),
		RetryAfter: retryAfter,
	}
}

// --- health & metrics -----------------------------------------------------------

// Health checks GET /api/v1/healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/api/v1/healthz", nil, nil)
}

// Metrics fetches the server's request metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	err := c.do(ctx, http.MethodGet, "/api/v1/metrics", nil, &m)
	return m, err
}

// --- users ----------------------------------------------------------------------

type registerReq struct {
	Name string `json:"name"`
}

type idResp struct {
	ID string `json:"id"`
}

// RegisterProvider registers a provider and returns its server-minted id.
func (c *Client) RegisterProvider(ctx context.Context, name string) (string, error) {
	var resp idResp
	err := c.do(ctx, http.MethodPost, "/api/v1/providers", registerReq{Name: name}, &resp)
	return resp.ID, err
}

// RegisterTagger registers a tagger and returns its server-minted id.
func (c *Client) RegisterTagger(ctx context.Context, name string) (string, error) {
	var resp idResp
	err := c.do(ctx, http.MethodPost, "/api/v1/taggers", registerReq{Name: name}, &resp)
	return resp.ID, err
}

// RegisterTaggers registers many taggers in one round-trip with per-item
// results.
func (c *Client) RegisterTaggers(ctx context.Context, names []string) (BatchRegisterResp, error) {
	var resp BatchRegisterResp
	err := c.do(ctx, http.MethodPost, "/api/v1/taggers:batch",
		map[string][]string{"names": names}, &resp)
	return resp, err
}

// GetUser fetches a user's approval rate and earnings.
func (c *Client) GetUser(ctx context.Context, id string) (User, error) {
	var u User
	err := c.do(ctx, http.MethodGet, "/api/v1/users/"+url.PathEscape(id), nil, &u)
	return u, err
}

// RateProvider records a tagger's rating of a provider.
func (c *Client) RateProvider(ctx context.Context, providerID string, positive bool) error {
	return c.do(ctx, http.MethodPost, "/api/v1/providers/"+url.PathEscape(providerID)+"/rate",
		map[string]bool{"positive": positive}, nil)
}

// --- projects -------------------------------------------------------------------

// CreateProject creates a project and returns its id.
func (c *Client) CreateProject(ctx context.Context, req CreateProjectReq) (string, error) {
	var resp idResp
	err := c.do(ctx, http.MethodPost, "/api/v1/projects", req, &resp)
	return resp.ID, err
}

// ListProjects fetches one page of projects. providerID filters by owner
// (""= all); limit 0 means everything; cursor "" starts from the top.
func (c *Client) ListProjects(ctx context.Context, providerID, cursor string, limit int) (ProjectsPage, error) {
	q := url.Values{}
	if providerID != "" {
		q.Set("provider", providerID)
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/api/v1/projects"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var page ProjectsPage
	err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// GetProject fetches one project row with live run state.
func (c *Client) GetProject(ctx context.Context, id string) (ProjectInfo, error) {
	var info ProjectInfo
	err := c.do(ctx, http.MethodGet, "/api/v1/projects/"+url.PathEscape(id), nil, &info)
	return info, err
}

// StartProject launches the project's simulated run.
func (c *Client) StartProject(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/api/v1/projects/"+url.PathEscape(id)+"/start", nil, nil)
}

// StopProject stops further allocation.
func (c *Client) StopProject(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/api/v1/projects/"+url.PathEscape(id)+"/stop", nil, nil)
}

// AddBudget extends the project's budget.
func (c *Client) AddBudget(ctx context.Context, id string, extra int) error {
	return c.do(ctx, http.MethodPost, "/api/v1/projects/"+url.PathEscape(id)+"/budget",
		map[string]int{"extra": extra}, nil)
}

// SwitchStrategy changes the allocation strategy mid-run.
func (c *Client) SwitchStrategy(ctx context.Context, id, strategy string) error {
	return c.do(ctx, http.MethodPost, "/api/v1/projects/"+url.PathEscape(id)+"/strategy",
		map[string]string{"strategy": strategy}, nil)
}

// GetSeries fetches a monitoring curve; name "" means mean_stability.
func (c *Client) GetSeries(ctx context.Context, id, name string) (Series, error) {
	path := "/api/v1/projects/" + url.PathEscape(id) + "/series"
	if name != "" {
		path += "?name=" + url.QueryEscape(name)
	}
	var s Series
	err := c.do(ctx, http.MethodGet, path, nil, &s)
	return s, err
}

// Export fetches one page of the project's consolidated tags (limit 0 =
// everything).
func (c *Client) Export(ctx context.Context, id, cursor string, limit int) (ExportPage, error) {
	q := url.Values{}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/api/v1/projects/" + url.PathEscape(id) + "/export"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var page ExportPage
	err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// GetResource fetches one resource's live status.
func (c *Client) GetResource(ctx context.Context, projectID, resourceID string) (ResourceStatus, error) {
	var st ResourceStatus
	err := c.do(ctx, http.MethodGet,
		"/api/v1/projects/"+url.PathEscape(projectID)+"/resources/"+url.PathEscape(resourceID), nil, &st)
	return st, err
}

// PromoteResource queues a resource for guaranteed selection next step.
func (c *Client) PromoteResource(ctx context.Context, projectID, resourceID string) error {
	return c.resourceAction(ctx, projectID, resourceID, "promote")
}

// StopResource excludes a resource from further allocation.
func (c *Client) StopResource(ctx context.Context, projectID, resourceID string) error {
	return c.resourceAction(ctx, projectID, resourceID, "stop")
}

// ResumeResource re-enables a stopped resource.
func (c *Client) ResumeResource(ctx context.Context, projectID, resourceID string) error {
	return c.resourceAction(ctx, projectID, resourceID, "resume")
}

func (c *Client) resourceAction(ctx context.Context, projectID, resourceID, action string) error {
	return c.do(ctx, http.MethodPost,
		"/api/v1/projects/"+url.PathEscape(projectID)+"/resources/"+url.PathEscape(resourceID)+"/"+action,
		nil, nil)
}

// --- tagger flow ----------------------------------------------------------------

// RequestTask asks for the next tagging task for a tagger.
func (c *Client) RequestTask(ctx context.Context, projectID, taggerID string) (Task, error) {
	var t Task
	err := c.do(ctx, http.MethodPost, "/api/v1/projects/"+url.PathEscape(projectID)+"/tasks",
		taggerBody(taggerID), &t)
	return t, err
}

// SubmitTask completes an assigned task with the tagger's post.
func (c *Client) SubmitTask(ctx context.Context, projectID, taskID string, tags []string) error {
	return c.do(ctx, http.MethodPost,
		"/api/v1/projects/"+url.PathEscape(projectID)+"/tasks/"+url.PathEscape(taskID)+"/submit",
		tagsBody(tags), nil)
}

// BatchTasks runs many request(+submit) pairs in one round-trip with
// per-item results. The call succeeds even when individual items fail;
// inspect Results/Failed.
func (c *Client) BatchTasks(ctx context.Context, projectID string, items []BatchTaskItem) (BatchTasksResp, error) {
	var resp BatchTasksResp
	err := c.do(ctx, http.MethodPost, "/api/v1/projects/"+url.PathEscape(projectID)+"/tasks:batch",
		itemsBody(items), &resp)
	return resp, err
}

// JudgePost records the provider's verdict on a post (seq is 1-based).
func (c *Client) JudgePost(ctx context.Context, projectID, resourceID string, seq uint64, approved bool) error {
	return c.do(ctx, http.MethodPost,
		fmt.Sprintf("/api/v1/projects/%s/posts/%s/%d/judge",
			url.PathEscape(projectID), url.PathEscape(resourceID), seq),
		map[string]bool{"approved": approved}, nil)
}
