// Package sidecar builds the HTTP observability routes that metaai-serve
// and metaai-fleet share. It sits apart from internal/obs so that the
// air-path packages, which all import obs, never link net/http.
package sidecar

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/obs/trace"
)

// New returns a mux serving the process-wide registry, trace ring and event
// journal:
//
//	/metrics       obs.Default's snapshot as text
//	/metrics.json  the same snapshot as JSON
//	/traces        the retained traces, newest first
//	/trace/<id>    one retained trace as Chrome trace-event JSON
//	/events        the event journal as NDJSON
//
// "/" answers a one-line index: title, these routes, then extra. The caller
// mounts extra's handlers on the returned mux itself.
func New(title string, extra ...string) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := obs.Default().Snapshot().WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := obs.Default().Snapshot().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := trace.WriteList(w, trace.Default().List()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
		idHex := strings.TrimPrefix(r.URL.Path, "/trace/")
		id, err := trace.ParseID(idHex)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tr, flags := trace.Default().Get(id)
		if tr == nil {
			http.Error(w, "trace not retained (sampled out, evicted, or never recorded)", http.StatusNotFound)
			return
		}
		// Chrome trace-event JSON: save the body and load it in
		// chrome://tracing or https://ui.perfetto.dev. It holds this
		// process's own segment only; at the router that is fleet.request
		// and its hops, and `metaai-serve -probe <router> -trace <id>`
		// fetches the stitched document with every replica's spans.
		w.Header().Set("Content-Type", "application/json")
		if err := trace.WriteJSON(w, tr, flags, trace.ExportOptions{}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := events.Default().WriteNDJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	routes := append([]string{"/metrics", "/metrics.json", "/traces", "/trace/<id>", "/events"}, extra...)
	index := title + ": " + strings.Join(routes, " ")
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, index)
	})
	return mux
}
