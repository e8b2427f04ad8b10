package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
)

// maxBodyBytes bounds a /query request body.
const maxBodyBytes = 1 << 20

// Handler returns the server's HTTP API:
//
//	POST /query          — run one SQL statement ({"sql": ...}; see Request)
//	POST /append         — append a row batch to a table's delta
//	GET  /stats          — dispatcher / admission / pool / per-class counters
//	GET  /tables         — registered tables with row counts and columns
//	GET  /healthz        — liveness
//	POST /snapshot       — seal registered tables into the snapshot directory
//	POST /exchange/run   — peer-to-peer: execute a distributed fragment
//	POST /exchange/push  — peer-to-peer: deliver morsel frames to an inbox
//	POST /exchange/done  — peer-to-peer: release a query's inboxes
//
// The /exchange endpoints answer 503 unless EnableCluster was called;
// /snapshot answers 503 unless EnableSnapshots was.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /append", s.handleAppend)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /tables", s.handleTables)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /exchange/run", s.handleExchangeRun)
	mux.HandleFunc("POST /exchange/push", s.handleExchangePush)
	mux.HandleFunc("POST /exchange/done", s.handleExchangeDone)
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	resp, err := s.Submit(r.Context(), &req)
	if err != nil {
		status := statusOf(err, r.Context())
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusOf maps Submit errors to HTTP statuses.
func statusOf(err error, ctx context.Context) int {
	var bad *BadRequestError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
		return http.StatusGatewayTimeout
	default:
		// Client went away or canceled; the status is moot.
		return http.StatusServiceUnavailable
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleTables(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Tables []TableInfo `json:"tables"`
	}{Tables: s.Tables()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}{Status: "ok", Workers: s.exec.Workers()})
}
