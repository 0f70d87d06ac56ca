package client

import "time"

// Wire types mirroring the v1 JSON surface (docs/API.md). The SDK keeps
// its own copies instead of importing server internals, so it depends on
// the documented contract only.

// User is the GET /api/v1/users/{id} response.
type User struct {
	ID           string  `json:"id"`
	Role         string  `json:"role"` // "provider" | "tagger"
	Name         string  `json:"name,omitempty"`
	Judged       int     `json:"judged"`
	JudgedOK     int     `json:"judged_ok"`
	Earned       float64 `json:"earned"`
	ApprovalRate float64 `json:"approval_rate"`
	EarnedTotal  float64 `json:"earned_total"`
}

// Project is the persisted project record inside ProjectInfo.
type Project struct {
	ID          string    `json:"id"`
	ProviderID  string    `json:"provider_id"`
	Name        string    `json:"name"`
	Description string    `json:"description,omitempty"`
	Kind        string    `json:"kind,omitempty"`
	Budget      int       `json:"budget"`
	Spent       int       `json:"spent"`
	PayPerTask  float64   `json:"pay_per_task"`
	Strategy    string    `json:"strategy"`
	Platform    string    `json:"platform"`
	Status      string    `json:"status"` // "active" | "stopped" | "done"
	CreatedAt   time.Time `json:"created_at"`
}

// ProjectInfo is one project row with live run state (Fig. 3).
type ProjectInfo struct {
	Project       Project `json:"project"`
	Spent         int     `json:"spent"`
	MeanStability float64 `json:"mean_stability"`
	MeanOracle    float64 `json:"mean_oracle,omitempty"`
	StrategyName  string  `json:"strategy_name"`
	PendingTasks  int     `json:"pending_tasks"`
}

// ProjectsPage is one page of GET /api/v1/projects.
type ProjectsPage struct {
	Items      []ProjectInfo `json:"items"`
	NextCursor string        `json:"next_cursor,omitempty"`
}

// CreateProjectReq is the Add Project form (Fig. 4).
type CreateProjectReq struct {
	ProviderID  string             `json:"provider_id"`
	Name        string             `json:"name"`
	Description string             `json:"description,omitempty"`
	Kind        string             `json:"kind,omitempty"`
	Budget      int                `json:"budget"`
	PayPerTask  float64            `json:"pay_per_task"`
	Strategy    string             `json:"strategy,omitempty"`
	Platform    string             `json:"platform,omitempty"`
	Resources   []UploadedResource `json:"resources,omitempty"`
}

// UploadedResource is one uploaded resource row.
type UploadedResource struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	Name string `json:"name"`
}

// Task is an assigned tagging task (Fig. 7).
type Task struct {
	ID         string    `json:"id"`
	ProjectID  string    `json:"project_id"`
	ResourceID string    `json:"resource_id"`
	WorkerID   string    `json:"worker_id,omitempty"`
	Status     string    `json:"status"`
	Reward     float64   `json:"reward"`
	CreatedAt  time.Time `json:"created_at"`
	DoneAt     time.Time `json:"done_at,omitempty"`
}

// Series is a quality-monitoring curve (Fig. 5).
type Series struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// TagFreq is one consolidated tag with its frequency.
type TagFreq struct {
	Tag   string  `json:"tag"`
	Count int     `json:"count"`
	Freq  float64 `json:"freq"`
}

// ResourceStatus is the single-resource snapshot (Fig. 6).
type ResourceStatus struct {
	ID        string    `json:"id"`
	Index     int       `json:"index"`
	Posts     int       `json:"posts"`
	Allocated int       `json:"allocated"`
	Stability float64   `json:"stability"`
	Oracle    float64   `json:"oracle,omitempty"`
	Promoted  bool      `json:"promoted"`
	Stopped   bool      `json:"stopped"`
	Exhausted bool      `json:"exhausted"`
	Series    []float64 `json:"series,omitempty"`
	TopTags   []TagFreq `json:"top_tags,omitempty"`
}

// ExportedResource is one row of a project export.
type ExportedResource struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	Posts     int       `json:"posts"`
	Stability float64   `json:"stability"`
	TopTags   []TagFreq `json:"top_tags"`
}

// ExportPage is one page of GET /api/v1/projects/{id}/export.
type ExportPage struct {
	Items      []ExportedResource `json:"items"`
	NextCursor string             `json:"next_cursor,omitempty"`
}

// ItemError is the per-item failure report in batch responses; Code uses
// the same vocabulary as APIError.Code.
type ItemError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// BatchRegisterResult is one name's outcome in a taggers:batch call.
type BatchRegisterResult struct {
	ID    string     `json:"id,omitempty"`
	Error *ItemError `json:"error,omitempty"`
}

// BatchRegisterResp summarizes a taggers:batch call.
type BatchRegisterResp struct {
	Results []BatchRegisterResult `json:"results"`
	OK      int                   `json:"ok"`
	Failed  int                   `json:"failed"`
}

// BatchTaskItem is one request(+submit) pair for tasks:batch. Empty Tags
// requests a task without submitting it.
type BatchTaskItem struct {
	TaggerID string   `json:"tagger_id"`
	Tags     []string `json:"tags,omitempty"`
}

// BatchTaskResult is one item's outcome in a tasks:batch call.
type BatchTaskResult struct {
	TaskID     string     `json:"task_id,omitempty"`
	ResourceID string     `json:"resource_id,omitempty"`
	Submitted  bool       `json:"submitted,omitempty"`
	Error      *ItemError `json:"error,omitempty"`
}

// BatchTasksResp summarizes a tasks:batch call.
type BatchTasksResp struct {
	Results []BatchTaskResult `json:"results"`
	OK      int               `json:"ok"`
	Failed  int               `json:"failed"`
}

// RouteMetrics is one route's aggregated server-side stats.
type RouteMetrics struct {
	Route     string  `json:"route"`
	Count     int64   `json:"count"`
	Errors    int64   `json:"errors"`
	Status2xx int64   `json:"status_2xx"`
	Status4xx int64   `json:"status_4xx"`
	Status5xx int64   `json:"status_5xx"`
	AvgMillis float64 `json:"avg_ms"`
	MaxMillis float64 `json:"max_ms"`
}

// Metrics is the GET /api/v1/metrics response.
type Metrics struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	InFlight      int64          `json:"in_flight"`
	TotalRequests int64          `json:"total_requests"`
	Routes        []RouteMetrics `json:"routes"`
}
