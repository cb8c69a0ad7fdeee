// Streaming endpoints: the HTTP face of internal/alert. Attaching a
// manager turns the static lead browser into the paper's actual
// program — documents stream in through POST /ingest, subscriptions
// are managed over a CRUD API, and alerts flow out through webhooks
// (the manager's job) and a live SSE stream (served here).
//
//	POST   /ingest              enqueue one document (429 on a full queue)
//	GET    /subscriptions       list subscriptions
//	POST   /subscriptions       create a subscription
//	GET    /subscriptions/{id}  fetch one subscription
//	PUT    /subscriptions/{id}  replace a subscription's filters
//	DELETE /subscriptions/{id}  delete a subscription
//	GET    /alerts/stream       live alert feed (SSE)
//	GET    /alerts/deadletters  alerts delivery gave up on
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"etap/internal/alert"
	"etap/internal/rank"
)

// AddLeads implements alert.Sink over the server's lead store: streamed
// events land exactly where batch extraction puts them. Even a
// zero-added call may refresh scores of existing leads, so the store
// publishes (and advances the checkpoint revision) for any non-empty
// batch.
func (s *Server) AddLeads(events []rank.Event, now time.Time) int {
	return s.leads.Add(events, now)
}

// AttachAlerts mounts the streaming API over an alert manager. Call
// before serving; the manager's lifecycle (Start/Close) stays with the
// caller. /healthz starts reporting — and degrading on — the
// subsystem's health.
func (s *Server) AttachAlerts(m *alert.Manager) {
	s.alerts = m
	s.handle("POST", "/ingest", s.handleIngest)
	s.handle("GET", "/subscriptions", s.handleSubscriptionList)
	s.handle("POST", "/subscriptions", s.handleSubscriptionCreate)
	s.handle("GET", "/subscriptions/{id}", s.handleSubscriptionGet)
	s.handle("PUT", "/subscriptions/{id}", s.handleSubscriptionUpdate)
	s.handle("DELETE", "/subscriptions/{id}", s.handleSubscriptionDelete)
	s.handle("GET", "/alerts/deadletters", s.handleDeadLetters)
	s.handle("GET", "/alerts/stream", s.handleAlertStream)
}

// maxIngestBody bounds POST bodies on the streaming endpoints.
const maxIngestBody = 1 << 20

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var doc alert.Document
	body := http.MaxBytesReader(w, r.Body, maxIngestBody)
	if err := json.NewDecoder(body).Decode(&doc); err != nil {
		writeError(w, http.StatusBadRequest, "bad document: "+err.Error())
		return
	}
	switch id, err := s.alerts.EnqueueTraced(doc); {
	case err == nil:
		resp := map[string]string{"queued": doc.URL}
		if id != "" {
			// The handle for GET /debug/traces/{id} — and the trace ID the
			// eventual webhook's traceparent header will carry.
			resp["trace_id"] = id
		}
		writeJSON(w, http.StatusAccepted, resp)
	case errors.Is(err, alert.ErrQueueFull):
		// Backpressure: the client should retry later, not buffer here.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, alert.ErrClosed), errors.Is(err, alert.ErrNotStarted):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, alert.ErrWAL):
		// The document could not be made durable; it was NOT accepted.
		// 503 (not 429): the log, not the client, is the problem, and a
		// retry is safe — replay dedup absorbs any partial acceptance.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleSubscriptionList(w http.ResponseWriter, _ *http.Request) {
	subs := s.alerts.Subscriptions().List()
	if subs == nil {
		subs = []alert.Subscription{}
	}
	writeJSON(w, http.StatusOK, subs)
}

func (s *Server) handleSubscriptionCreate(w http.ResponseWriter, r *http.Request) {
	var sub alert.Subscription
	body := http.MaxBytesReader(w, r.Body, maxIngestBody)
	if err := json.NewDecoder(body).Decode(&sub); err != nil {
		writeError(w, http.StatusBadRequest, "bad subscription: "+err.Error())
		return
	}
	stored, err := s.alerts.Subscriptions().Add(sub)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, stored)
}

func (s *Server) handleSubscriptionGet(w http.ResponseWriter, r *http.Request) {
	sub, err := s.alerts.Subscriptions().Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, sub)
}

func (s *Server) handleSubscriptionUpdate(w http.ResponseWriter, r *http.Request) {
	var sub alert.Subscription
	body := http.MaxBytesReader(w, r.Body, maxIngestBody)
	if err := json.NewDecoder(body).Decode(&sub); err != nil {
		writeError(w, http.StatusBadRequest, "bad subscription: "+err.Error())
		return
	}
	stored, err := s.alerts.Subscriptions().Update(r.PathValue("id"), sub)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, stored)
	case errors.Is(err, alert.ErrUnknownSubscription):
		writeError(w, http.StatusNotFound, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleSubscriptionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.alerts.Unsubscribe(id); err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) handleDeadLetters(w http.ResponseWriter, _ *http.Request) {
	dead := s.alerts.DeadLetters()
	if dead == nil {
		dead = []alert.DeadLetter{}
	}
	writeJSON(w, http.StatusOK, dead)
}

// handleAlertStream serves the live alert feed as Server-Sent Events:
// one "data:" frame per alert, as JSON. The connection stays open
// until the client leaves or the broadcaster shuts down.
func (s *Server) handleAlertStream(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	// The outer http.Server's WriteTimeout would kill a long-lived
	// stream; lift it for this response only. Unsupported writers
	// (test recorders) just keep their default.
	//etaplint:ignore error-swallowing -- recorders without deadline support still serve the stream fine
	rc.SetWriteDeadline(time.Time{})
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	ch, cancel := s.alerts.Broadcaster().Subscribe()
	defer cancel()
	// An opening comment flushes headers so clients see the stream is
	// live before the first alert fires.
	if _, err := fmt.Fprint(w, ": connected\n\n"); err != nil {
		return
	}
	if err := rc.Flush(); err != nil {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case frame, ok := <-ch:
			if !ok {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", frame); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		}
	}
}
