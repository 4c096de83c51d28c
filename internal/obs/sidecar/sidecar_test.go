package sidecar

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

// TestSharedRoutes: every shared route answers, a bad or unknown trace ID
// is refused, and the index lists the shared routes before the caller's.
func TestSharedRoutes(t *testing.T) {
	mux := New("test sidecar", "/extra")
	get := func(path string, code int) string {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != code {
			t.Fatalf("GET %s = %d, want %d", path, rec.Code, code)
		}
		return rec.Body.String()
	}
	get("/metrics", http.StatusOK)
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json", http.StatusOK)), &snap); err != nil {
		t.Fatalf("/metrics.json does not parse: %v", err)
	}
	get("/traces", http.StatusOK)
	get("/events", http.StatusOK)
	get("/trace/not-hex", http.StatusBadRequest)
	get("/trace/00000000000000ff", http.StatusNotFound)
	want := "test sidecar: /metrics /metrics.json /traces /trace/<id> /events /extra\n"
	if got := get("/", http.StatusOK); got != want {
		t.Fatalf("index = %q, want %q", got, want)
	}
}
