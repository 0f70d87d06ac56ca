package client

import (
	"testing"

	"itag/internal/api"
)

// TestCodeVocabularyMatchesServer pins the SDK's error-code constants to
// the server's CodeTable: every code the server can emit has an SDK
// constant, and the SDK declares none the server cannot produce.
func TestCodeVocabularyMatchesServer(t *testing.T) {
	sdk := map[string]bool{
		CodeInvalidRequest:  true,
		CodeInvalidArgument: true,
		CodeNotFound:        true,
		CodeConflict:        true,
		CodeInvalidRole:     true,
		CodeExhausted:       true,
		CodeRateLimited:     true,
		CodeIOFailure:       true,
		CodeCorruption:      true,
		CodeBatchTooLarge:   true,
		CodeNotOwner:        true,
		CodeUnavailable:     true,
		CodeTimeout:         true,
		CodeCanceled:        true,
		CodeInternal:        true,
	}
	server := make(map[string]bool)
	for _, spec := range api.CodeTable() {
		server[spec.Code] = true
		if !sdk[spec.Code] {
			t.Errorf("server code %q has no SDK constant", spec.Code)
		}
	}
	for code := range sdk {
		if !server[code] {
			t.Errorf("SDK constant %q is not in the server's CodeTable", code)
		}
	}
}
