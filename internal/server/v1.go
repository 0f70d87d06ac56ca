package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"itag/internal/api"
	"itag/internal/core"
	"itag/internal/wire"
)

// This file holds the paginated listings, the batch write paths and the
// SSE telemetry stream; the CRUD handlers and the route table live in
// server.go.

// maxBatchItems caps one batch call; bigger fleets split into multiple
// calls client-side.
const maxBatchItems = 10000

// itemError is the per-item error report inside batch responses — same
// code vocabulary as the top-level envelope.
type itemError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func toItemError(err error) *itemError {
	ae := mapErr(err)
	if inner := api.AsError(err); inner != nil {
		ae = inner
	}
	return &itemError{Code: ae.Code, Message: ae.Message}
}

// --- paginated listings ---------------------------------------------------------

type projectsPage struct {
	Items      []core.ProjectInfo `json:"items"`
	NextCursor string             `json:"next_cursor,omitempty"`
}

func (s *Server) listProjects(r *http.Request, _ api.None) (projectsPage, error) {
	limit, cursor, err := parsePageParams(r)
	if err != nil {
		return projectsPage{}, err
	}
	items, next, err := s.svc.ProjectsPage(r.Context(), r.URL.Query().Get("provider"), cursor, limit)
	if err != nil {
		return projectsPage{}, err
	}
	return projectsPage{Items: items, NextCursor: next}, nil
}

// pageParts is a response body as the pieces it is written in, in order
// (api.Raw.Parts); the cached route handler sends it as it is.
type pageParts [][]byte

// exportHead and exportTail are the fixed pieces of an export page around
// its rows; a page with a next cursor ends in a tail of its own.
var (
	exportHead = []byte(`{"items":[`)
	exportTail = []byte("]}\n")
)

// export computes one export page — the cached export route's compute
// function (see cachedJSON) — as its rows' encoded bytes between a head and
// a tail (exportParts).
func (s *Server) export(r *http.Request, st *core.Stamp) (any, error) {
	limit, cursor, err := parsePageParams(r)
	if err != nil {
		return nil, err
	}
	rows, next, err := s.svc.ExportPageStamped(r.Context(), r.PathValue("id"), cursor, limit, st)
	if err != nil {
		return nil, err
	}
	return exportParts(rows, next), nil
}

// exportParts lays out the export page of rows, each encoded as
// core.EncodeExportRow encodes it, and next: the head, the rows (the last
// without its trailing comma) and the tail. Concatenated, the pieces are the
// bytes the response pipeline's json.Encoder makes of the page's object:
// "items", then "next_cursor" unless next is empty, and a newline.
func exportParts(rows [][]byte, next string) pageParts {
	parts := make(pageParts, 0, len(rows)+2)
	parts = append(parts, exportHead)
	for i, row := range rows {
		if i == len(rows)-1 {
			row = row[:len(row)-1]
		}
		parts = append(parts, row)
	}
	tail := exportTail
	if next != "" {
		tail = wire.AppendString(append(make([]byte, 0, len(next)+20), `],"next_cursor":`...), next)
		tail = append(tail, "}\n"...)
	}
	return append(parts, tail)
}

// --- batch registration ---------------------------------------------------------

type batchNamesReq struct {
	Names []string `json:"names"`
}

type batchRegisterResult struct {
	ID    string     `json:"id,omitempty"`
	Error *itemError `json:"error,omitempty"`
}

type batchRegisterResp struct {
	Results []batchRegisterResult `json:"results"`
	OK      int                   `json:"ok"`
	Failed  int                   `json:"failed"`
}

// batchRegisterTaggers registers many taggers in one round-trip — the
// onboarding path for a fleet of simulated taggers.
func (s *Server) batchRegisterTaggers(r *http.Request, req batchNamesReq) (batchRegisterResp, error) {
	if len(req.Names) == 0 {
		return batchRegisterResp{}, api.Errorf(http.StatusBadRequest, api.CodeInvalidArgument,
			"names required")
	}
	if len(req.Names) > maxBatchItems {
		return batchRegisterResp{}, api.Errorf(http.StatusRequestEntityTooLarge, api.CodeBatchTooLarge,
			"%d names exceeds the %d per-call cap", len(req.Names), maxBatchItems)
	}
	resp := batchRegisterResp{Results: make([]batchRegisterResult, 0, len(req.Names))}
	for _, name := range req.Names {
		if err := r.Context().Err(); err != nil {
			return batchRegisterResp{}, err
		}
		id, err := s.svc.RegisterTagger(r.Context(), name)
		if err != nil {
			resp.Results = append(resp.Results, batchRegisterResult{Error: toItemError(err)})
			resp.Failed++
			continue
		}
		resp.Results = append(resp.Results, batchRegisterResult{ID: id})
		resp.OK++
	}
	return resp, nil
}

// --- batch tasks ----------------------------------------------------------------

type batchTasksReq struct {
	Items []core.BatchItem `json:"items"`
}

type batchTaskResult struct {
	TaskID     string     `json:"task_id,omitempty"`
	ResourceID string     `json:"resource_id,omitempty"`
	Submitted  bool       `json:"submitted,omitempty"`
	Error      *itemError `json:"error,omitempty"`
}

type batchTasksResp struct {
	Results []batchTaskResult `json:"results"`
	OK      int               `json:"ok"`
	Failed  int               `json:"failed"`
}

// batchTasks executes many request+submit pairs in one round-trip and one
// store commit: the high-fanout write path a fleet of concurrent taggers
// needs (one HTTP exchange instead of two per task, one WAL record instead
// of three per post). Items fail independently; durability is all-or-nothing
// per call, so a storage failure fails every item. The call itself only
// fails on malformed input. A call cancelled or timed out partway still
// answers with the items it committed, and each item it never reached
// fails with the context's error (timeout or canceled), so ok + failed is
// always the number of items.
func (s *Server) batchTasks(r *http.Request, req batchTasksReq) (batchTasksResp, error) {
	if len(req.Items) == 0 {
		return batchTasksResp{}, api.Errorf(http.StatusBadRequest, api.CodeInvalidArgument,
			"items required")
	}
	if len(req.Items) > maxBatchItems {
		return batchTasksResp{}, api.Errorf(http.StatusRequestEntityTooLarge, api.CodeBatchTooLarge,
			"%d items exceeds the %d per-call cap", len(req.Items), maxBatchItems)
	}
	results, ctxErr := s.svc.BatchTasks(r.Context(), r.PathValue("id"), req.Items)
	resp := batchTasksResp{Results: make([]batchTaskResult, len(req.Items))}
	for i := range resp.Results {
		res := core.BatchResult{Err: ctxErr} // an item the call never reached
		if i < len(results) {
			res = results[i]
		}
		resp.Results[i] = batchTaskResult{TaskID: res.TaskID, ResourceID: res.ResourceID, Submitted: res.Submitted}
		if res.Err != nil {
			resp.Results[i].Error = toItemError(res.Err)
			resp.Failed++
		} else {
			resp.OK++
		}
	}
	return resp, nil
}

// --- SSE telemetry stream -------------------------------------------------------

// sseHeartbeat keeps idle streams alive through proxies.
const sseHeartbeat = 15 * time.Second

// handleEvents streams a project's live run telemetry as Server-Sent
// Events, fed by the Monitor's subscriber fan-out (no polling):
//
//	event: hello     {"project_id": ..., "spent": 12}
//	event: tick      {"series": "mean_stability", "x": 16, "y": 0.55}
//	event: run-event {"at": ..., "spent": 16, "kind": "promote", "detail": ...}
//	event: dropped   {"count": 3}          — this subscriber fell behind
//
// The stream ends on client disconnect or on server drain.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	projectID := r.PathValue("id")
	info, err := s.svc.Project(r.Context(), projectID)
	if err != nil {
		s.kit.WriteError(w, r, err)
		return
	}
	sub, err := s.svc.Subscribe(r.Context(), projectID, s.sseBuffer)
	if err != nil {
		s.kit.WriteError(w, r, err)
		return
	}
	defer sub.Cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		s.kit.WriteError(w, r, api.Errorf(http.StatusInternalServerError, api.CodeInternal,
			"response writer does not support streaming"))
		return
	}

	s.metrics.AddSSEStream(1)
	defer s.metrics.AddSSEStream(-1)
	// accounted tracks how many of this subscriber's drops have reached the
	// metrics registry; the final delta is flushed on the way out so drops
	// that happen after the last delivered notification (e.g. a stalled
	// client whose stream is torn down) still count.
	var accounted int64
	defer func() {
		if d := sub.Dropped(); d > accounted {
			s.metrics.AddSSEDropped(d - accounted)
		}
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	// An SSE stream outlives the http.Server's WriteTimeout by design.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	w.WriteHeader(http.StatusOK)

	writeEvent := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	if !writeEvent("hello", map[string]any{
		"project_id": projectID, "spent": info.Spent,
	}) {
		return
	}

	if s.sseGate != nil {
		select {
		case <-s.sseGate:
		case <-r.Context().Done():
			return
		}
	}
	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	var reported int64
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		case n, open := <-sub.C:
			if !open {
				return
			}
			if d := sub.Dropped(); d > reported {
				s.metrics.AddSSEDropped(d - accounted)
				accounted = d
				if !writeEvent("dropped", map[string]int64{"count": d - reported}) {
					return
				}
				reported = d
			}
			switch n.Type {
			case core.NotifyTick:
				if !writeEvent("tick", map[string]any{"series": n.Series, "x": n.X, "y": n.Y}) {
					return
				}
			case core.NotifyEvent:
				if !writeEvent("run-event", n.Event) {
					return
				}
			}
		}
	}
}
