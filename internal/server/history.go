package server

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// In-process stats history: a background sampler reads the registry's
// flat view every HistoryInterval — every unlabeled counter and gauge
// under its /metrics key, plus p50/p90/p99 of each unlabeled latency
// histogram — into a fixed-size ring. GET /v1/stats/history serves a
// window of it, so an operator can see the last N minutes of queue
// depth, deferred-gang backlog and job latency without running a
// Prometheus server at all.

// historyLoop is the background sampler; it runs from New until Close.
func (s *Server) historyLoop() {
	defer s.historyWG.Done()
	tick := time.NewTicker(s.historyInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.historyStop:
			return
		case <-tick.C:
			s.history.Add(time.Now().UTC(), s.obs.reg.Values(true))
		}
	}
}

// handleStatsHistory is GET /v1/stats/history?window=5m: the retained
// samples, oldest first. window limits how far back the response
// reaches; absent or zero means everything the ring holds.
func (s *Server) handleStatsHistory(w http.ResponseWriter, r *http.Request) {
	var window time.Duration
	if ws := r.URL.Query().Get("window"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad window %q: %v", ws, err)
			return
		}
		if d < 0 {
			s.writeError(w, r, http.StatusBadRequest, "window %q is negative", ws)
			return
		}
		window = d
	}
	samples := s.history.Window(window, time.Now().UTC())
	if samples == nil {
		samples = []obs.Sample{} // serialize as [], not null
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"interval_ms":  s.historyInterval.Milliseconds(),
		"retention_ms": s.historyRetention.Milliseconds(),
		"capacity":     s.history.Cap(),
		"samples":      samples,
	})
}
