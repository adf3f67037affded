// Package serve exposes a live HTTP view of an observability hub, so a
// long-running workload (a netload sweep, a soak run) can be watched while
// it executes instead of only dumped at exit.
//
// The server renders the hub through the existing exporters:
//
//	/metrics        Prometheus text exposition (scrapeable)
//	/snapshot       JSON document: clock, trace stats, and the full registry
//	/trace          Chrome trace-event JSON of everything recorded so far
//	/critpath       per-message critical-path latency attribution (text)
//	/timeline       windowed metrics timeline JSON (when a sampler is attached)
//	/diff           differential attribution of the live hub vs a baseline
//	/alerts         SLO incident report (when a monitor is attached)
//	/health         readiness: 503 while SLO alerts are open or shutting down
//	/healthz        liveness: 200 until graceful shutdown begins, then 503
//	/debug/pprof/   the standard net/http/pprof handlers (host-side profiles)
//
// The simulator is single-threaded by design, so the server serializes all
// hub reads behind one mutex and hands the owning tool the same lock via
// Sync: the tool wraps its hub mutations in Sync(fn) and handlers render a
// consistent view. Rendering happens into a buffer under the lock; slow
// clients never stall the simulation beyond the render itself.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"msglayer/internal/critpath"
	"msglayer/internal/obs"
	"msglayer/internal/obs/diff"
	"msglayer/internal/obs/monitor"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/twin"
)

// Server serves one hub's live observability view.
type Server struct {
	hub *obs.Hub
	tl  *timeline.Sampler
	mon *monitor.Monitor

	mu      sync.Mutex // serializes hub access between the sim thread and handlers
	http    *http.Server
	ln      net.Listener
	done    chan struct{} // closed when the serve loop exits
	closing atomic.Bool   // set when graceful shutdown begins; /healthz flips to 503
}

// New returns an unstarted server for the hub.
func New(hub *obs.Hub) *Server {
	if hub == nil {
		panic("serve: nil hub")
	}
	return &Server{hub: hub, done: make(chan struct{})}
}

// SetTimeline attaches (or detaches, with nil) the timeline sampler the
// /timeline endpoint renders. The sampler must watch the same hub and be
// advanced under Sync, like every other hub mutation; /timeline answers
// 404 while no sampler is attached. Call before Start.
func (s *Server) SetTimeline(tl *timeline.Sampler) { s.tl = tl }

// SetMonitor attaches (or detaches, with nil) the SLO monitor the /alerts
// and /health endpoints render. The monitor must be fed under Sync (it
// rides the timeline sampler's window stream, which is advanced under
// Sync); /alerts answers 404 while no monitor is attached. Call before
// Start.
func (s *Server) SetMonitor(m *monitor.Monitor) { s.mon = m }

// Sync runs fn while holding the server's hub lock. The tool that owns the
// hub must route every hub mutation through Sync once the server is started,
// so handlers never observe a half-updated registry.
func (s *Server) Sync(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// Handler returns the server's route table; exposed for in-process tests.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/critpath", s.handleCritpath)
	mux.HandleFunc("/timeline", s.handleTimeline)
	mux.HandleFunc("/diff", s.handleDiff)
	mux.HandleFunc("/twin", s.handleTwin)
	mux.HandleFunc("/alerts", s.handleAlerts)
	mux.HandleFunc("/health", s.handleHealth)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start listens on addr (":0" picks a free port) and serves in a background
// goroutine until Shutdown or Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The listener died under us; nothing to do but stop serving.
			_ = err
		}
	}()
	return nil
}

// Addr returns the bound listen address, empty before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the server: /healthz flips to 503 so load
// balancers stop routing, in-flight requests finish, then the serve
// goroutine exits. The closing flag is set before the unstarted-server
// early return so the liveness transition is observable in tests without
// a listener.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	if s.http == nil {
		return nil
	}
	err := s.http.Shutdown(ctx)
	<-s.done
	return err
}

// Close force-stops the server without waiting for in-flight requests.
func (s *Server) Close() error {
	s.closing.Store(true)
	if s.http == nil {
		return nil
	}
	err := s.http.Close()
	<-s.done
	return err
}

// render evaluates fn into a buffer under the hub lock and writes the result
// with the given content type.
func (s *Server) render(w http.ResponseWriter, contentType string, fn func(*bytes.Buffer) error) {
	var b bytes.Buffer
	s.mu.Lock()
	err := fn(&b)
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(b.Bytes())
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "msglayer observability server")
	fmt.Fprintln(w, "  /metrics        Prometheus text exposition")
	fmt.Fprintln(w, "  /snapshot       JSON snapshot (clock, trace stats, registry)")
	fmt.Fprintln(w, "  /trace          Chrome trace-event JSON (perfetto-loadable)")
	fmt.Fprintln(w, "  /critpath       per-message critical-path latency attribution (text)")
	fmt.Fprintln(w, "  /timeline       windowed metrics timeline JSON")
	fmt.Fprintln(w, "  /diff           live hub vs a baseline artifact (POST body)")
	fmt.Fprintln(w, "  /twin           O(1) analytic twin prediction (?load=&mode=... or ?proto=&words=)")
	fmt.Fprintln(w, "  /alerts         SLO incident report (?format=text|json|csv)")
	fmt.Fprintln(w, "  /health         readiness: 503 while SLO alerts are open or shutting down")
	fmt.Fprintln(w, "  /healthz        liveness: 200 until graceful shutdown begins")
	fmt.Fprintln(w, "  /debug/pprof/   host-side Go profiles")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.render(w, "text/plain; version=0.0.4; charset=utf-8", func(b *bytes.Buffer) error {
		return s.hub.Metrics.WritePrometheus(b)
	})
}

// snapshotDoc is the /snapshot schema: where the simulated clock stands,
// how much trace has been retained, and the full metric registry.
type snapshotDoc struct {
	Schema       int             `json:"schema"`
	Round        uint64          `json:"round"`
	TraceEvents  int             `json:"trace_events"`
	TraceDropped uint64          `json:"trace_dropped"`
	Registry     json.RawMessage `json:"registry"`
}

// snapshotSchema versions the /snapshot document.
const snapshotSchema = 1

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	s.render(w, "application/json", func(b *bytes.Buffer) error {
		reg, err := s.hub.Metrics.MetricsJSON()
		if err != nil {
			return err
		}
		doc := snapshotDoc{
			Schema:       snapshotSchema,
			Round:        s.hub.Round(),
			TraceEvents:  s.hub.Trace.Len(),
			TraceDropped: s.hub.Trace.Dropped(),
			Registry:     reg,
		}
		enc := json.NewEncoder(b)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	s.render(w, "application/json", func(b *bytes.Buffer) error {
		return s.hub.Trace.WriteChromeTrace(b)
	})
}

// handleTimeline renders the attached timeline sampler's windows so far:
// the live view of the same document -timeline-out writes at exit.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	if s.tl == nil {
		http.Error(w, "no timeline sampler attached", http.StatusNotFound)
		return
	}
	s.render(w, "application/json", func(b *bytes.Buffer) error {
		return timeline.WriteJSON(b, s.tl.Snapshot())
	})
}

// maxBaselineBytes bounds a POSTed baseline artifact; a metrics or timeline
// export is a few KB to a few MB, so 64 MiB is generous without letting a
// stray upload exhaust memory.
const maxBaselineBytes = 64 << 20

// handleDiff answers "where did the time go since this baseline?": it
// compares a baseline artifact against the live hub with the differential
// attribution engine and renders the report. The baseline arrives as the
// POST body — never by server-side path, so a request can neither read
// arbitrary files nor probe for their existence — and may be a metrics
// export, a /snapshot document (its registry is unwrapped), or a timeline
// export (diffed against the attached sampler). ?format=json or ?format=csv
// select the encoding; the default is the text report.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	art, err := s.diffBaseline(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	var rep *diff.Report
	switch art.Kind {
	case "metrics":
		s.mu.Lock()
		live := s.hub.Metrics.JSONMetrics()
		s.mu.Unlock()
		rep = diff.CompareMetrics(art.Path, "live", art.Metrics, live)
	case "timeline":
		if s.tl == nil {
			http.Error(w, "no timeline sampler attached", http.StatusNotFound)
			return
		}
		s.mu.Lock()
		snap := s.tl.Snapshot()
		s.mu.Unlock()
		rep = diff.CompareTimelines(art.Path, "live", art.Timeline, snap)
	default:
		http.Error(w, fmt.Sprintf("diff baseline must be a metrics export, /snapshot document, or timeline export (got a %s artifact)", art.Kind),
			http.StatusBadRequest)
		return
	}
	// A diff that does not reconcile is a bug, never a legitimate answer.
	if err := rep.Reconcile(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	var b bytes.Buffer
	contentType := "text/plain; charset=utf-8"
	switch r.URL.Query().Get("format") {
	case "", "text":
		err = diff.WriteText(&b, rep)
	case "json":
		contentType = "application/json"
		err = diff.WriteJSON(&b, rep)
	case "csv":
		contentType = "text/csv; charset=utf-8"
		err = diff.WriteCSV(&b, rep)
	default:
		http.Error(w, "unknown format (want text, json, or csv)", http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(b.Bytes())
}

// diffBaseline reads the baseline artifact for /diff from the POST body,
// capped at maxBaselineBytes, outside the hub lock.
func (s *Server) diffBaseline(r *http.Request) (*diff.Artifact, error) {
	if r.Method == http.MethodPost {
		data, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBaselineBytes))
		if err != nil {
			return nil, fmt.Errorf("reading baseline body: %w", err)
		}
		if len(data) > 0 {
			return loadBaseline("<request>", data)
		}
	}
	return nil, errors.New("supply a baseline artifact as the POST body")
}

// loadBaseline recognises a baseline artifact, unwrapping a /snapshot
// document down to its registry so a snapshot saved from one run can be
// diffed against another run directly.
func loadBaseline(name string, data []byte) (*diff.Artifact, error) {
	var doc struct {
		Registry json.RawMessage `json:"registry"`
	}
	if err := json.Unmarshal(data, &doc); err == nil && len(doc.Registry) > 0 && string(doc.Registry) != "null" {
		return diff.LoadArtifactBytes(name, doc.Registry)
	}
	return diff.LoadArtifactBytes(name, data)
}

// handleTwin answers an O(1) analytic twin prediction for the operating
// point described by the query string — closed form, no hub access, no
// simulation, so it is safe to hit at any rate while a sweep runs.
// ?proto=<scenario>&words=N predicts protocol instruction counts; otherwise
// ?topology=&k=&levels=&w=&h=&mode=&vc=&load=&cycles= predicts a flit-network
// point (all parameters optional, defaulting to the calibration point).
func (s *Server) handleTwin(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	str := func(name, def string) string {
		if v := q.Get(name); v != "" {
			return v
		}
		return def
	}
	num := func(name string, def int) (int, error) {
		if v := q.Get(name); v != "" {
			return strconv.Atoi(v)
		}
		return def, nil
	}
	answer := func(v any) {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(b, '\n'))
	}
	if proto := q.Get("proto"); proto != "" {
		words, err := num("words", 64)
		if err != nil {
			http.Error(w, "bad words: "+err.Error(), http.StatusBadRequest)
			return
		}
		p, err := (twin.ProtoPoint{Scenario: proto, Words: words}).PredictProto()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		answer(struct {
			Scenario string `json:"scenario"`
			Words    int    `json:"words"`
			twin.ProtoPrediction
		}{proto, words, p})
		return
	}
	mode, err := twin.ParseMode(str("mode", "deterministic"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	regime := twin.Regime{Topology: str("topology", "fattree"), Mode: mode}
	var a, b int
	if regime.Topology == "mesh" {
		a, err = num("w", 4)
		if err == nil {
			b, err = num("h", 4)
		}
	} else {
		a, err = num("k", 4)
		if err == nil {
			b, err = num("levels", 2)
		}
	}
	if err != nil {
		http.Error(w, "bad shape: "+err.Error(), http.StatusBadRequest)
		return
	}
	regime.A, regime.B = a, b
	if regime.VCs, err = num("vc", 1); err != nil {
		http.Error(w, "bad vc: "+err.Error(), http.StatusBadRequest)
		return
	}
	cycles, err := num("cycles", twin.CalCycles)
	if err != nil {
		http.Error(w, "bad cycles: "+err.Error(), http.StatusBadRequest)
		return
	}
	load := 0.1
	if v := q.Get("load"); v != "" {
		if load, err = strconv.ParseFloat(v, 64); err != nil {
			http.Error(w, "bad load: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	p, err := (twin.NetPoint{Regime: regime, Load: load, Cycles: cycles}).PredictNet()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	answer(struct {
		Point  string  `json:"point"`
		Load   float64 `json:"load"`
		Cycles int     `json:"cycles"`
		twin.NetPrediction
	}{regime.String(), load, cycles, p})
}

// handleCritpath renders the live per-message critical-path report: the
// trace recorded so far, reconstructed and decomposed on demand. A trace
// that dropped events is reported as such rather than analyzed as if it
// were complete.
func (s *Server) handleCritpath(w http.ResponseWriter, _ *http.Request) {
	s.render(w, "text/plain; charset=utf-8", func(b *bytes.Buffer) error {
		if d := s.hub.Trace.Dropped(); d > 0 {
			fmt.Fprintf(b, "WARNING: trace dropped %d events; the attribution below is partial\n\n", d)
		}
		return critpath.WriteText(b, critpath.Analyze(s.hub.Trace.Events()))
	})
}

// handleAlerts renders the attached SLO monitor's incident report so far:
// the live view of the same document -slo-out writes at exit. ?format=json
// or ?format=csv select the encoding; the default is the text report.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.mon == nil {
		http.Error(w, "no SLO monitor attached", http.StatusNotFound)
		return
	}
	contentType := "text/plain; charset=utf-8"
	var write func(*bytes.Buffer, *monitor.Report) error
	switch r.URL.Query().Get("format") {
	case "", "text":
		write = func(b *bytes.Buffer, rep *monitor.Report) error { return monitor.WriteText(b, rep) }
	case "json":
		contentType = "application/json"
		write = func(b *bytes.Buffer, rep *monitor.Report) error { return monitor.WriteJSON(b, rep) }
	case "csv":
		contentType = "text/csv; charset=utf-8"
		write = func(b *bytes.Buffer, rep *monitor.Report) error { return monitor.WriteCSV(b, rep) }
	default:
		http.Error(w, "unknown format (want text, json, or csv)", http.StatusBadRequest)
		return
	}
	s.render(w, contentType, func(b *bytes.Buffer) error {
		return write(b, s.mon.Snapshot("live"))
	})
}

// healthDoc is the /health schema.
type healthDoc struct {
	Status     string `json:"status"` // ok | degraded | shutting-down
	Round      uint64 `json:"round"`
	SLOMonitor bool   `json:"slo_monitor"`
	Windows    int    `json:"windows,omitempty"`
	OpenAlerts int    `json:"open_alerts"`
	Incidents  int    `json:"incidents"`
}

// handleHealth is the readiness probe: it answers 503 while graceful
// shutdown is under way or any SLO alert is open, 200 otherwise, always
// with a JSON body describing why. Without a monitor it degrades to a
// plain liveness answer with zero alert counts.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	doc := healthDoc{Status: "ok"}
	s.mu.Lock()
	doc.Round = s.hub.Round()
	if s.mon != nil {
		doc.SLOMonitor = true
		doc.Windows = s.mon.Windows()
		doc.OpenAlerts = s.mon.OpenAlerts()
		doc.Incidents = s.mon.IncidentCount()
	}
	s.mu.Unlock()
	code := http.StatusOK
	switch {
	case s.closing.Load():
		doc.Status = "shutting-down"
		code = http.StatusServiceUnavailable
	case doc.OpenAlerts > 0:
		doc.Status = "degraded"
		code = http.StatusServiceUnavailable
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(b, '\n'))
}

// handleHealthz is the liveness probe: a bare 200 "ok" until graceful
// shutdown begins, then 503 "shutting down" so load balancers drain the
// instance while in-flight requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.closing.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "shutting down")
		return
	}
	fmt.Fprintln(w, "ok")
}
