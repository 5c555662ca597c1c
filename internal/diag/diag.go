// Package diag is the live introspection server of the framework (ISSUE 6):
// a small opt-in HTTP surface answering, against a running process, the
// questions the paper's evaluation answers only after the fact — what is
// every allocation context doing, why did (or didn't) it switch, what is the
// framework costing the runtime right now.
//
// Endpoints:
//
//	/            plain-text index of the endpoints below
//	/metrics     Prometheus text exposition of the shared obs.Registry
//	/debug/vars  standard expvar JSON (includes registries published there)
//	/sites       JSON snapshot of every allocation context of every attached
//	             engine: variant, rounds, window fill, cooldown, last outcome
//	/sites/{name}/explain  last K decision records of one context
//	/events      flight-recorder ring: the most recent framework events
//
// The server holds no locks while serving beyond the brief per-engine
// snapshot locks, and nothing here runs unless a server is constructed —
// the framework's default paths are unaffected.
package diag

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Timeouts bounds the per-connection I/O of the HTTP server ListenAndServe
// constructs. The zero value of a field disables that timeout — pass the
// result of DefaultTimeouts (possibly modified) rather than a zero struct
// unless an unbounded server is genuinely wanted.
type Timeouts struct {
	// ReadHeader bounds how long a client may take to send the request
	// header; it is the defence against stalled-header connection pinning.
	ReadHeader time.Duration
	// Read bounds the whole request read, Write the whole response write,
	// Idle how long a keep-alive connection may sit between requests.
	Read  time.Duration
	Write time.Duration
	Idle  time.Duration
}

// DefaultTimeouts returns the timeouts new servers start with: generous for
// any real scrape, but strict enough that a stalled or byte-dribbling client
// cannot hold a connection (and its file descriptor) open indefinitely.
func DefaultTimeouts() Timeouts {
	return Timeouts{
		ReadHeader: 5 * time.Second,
		Read:       30 * time.Second,
		Write:      30 * time.Second,
		Idle:       2 * time.Minute,
	}
}

// Server exposes the introspection endpoints over a set of attached engines.
// Construct with New, register engines with Attach (safe at any time, also
// mid-serve), and mount Handler on any http server — or use ListenAndServe.
type Server struct {
	reg *obs.Registry
	rec *obs.FlightRecorder

	mu       sync.Mutex
	engines  []*core.Engine
	timeouts Timeouts
}

// New returns a server rendering the given registry on /metrics and the
// given flight recorder on /events. Either may be nil: a nil registry
// serves an empty (but well-formed) exposition, a nil recorder serves an
// empty event list.
func New(reg *obs.Registry, rec *obs.FlightRecorder) *Server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Server{reg: reg, rec: rec, timeouts: DefaultTimeouts()}
}

// SetTimeouts overrides the connection timeouts applied by ListenAndServe
// and ServeListener. It replaces the whole set: zero fields disable that
// timeout. Takes effect for servers started after the call.
func (s *Server) SetTimeouts(t Timeouts) {
	s.mu.Lock()
	s.timeouts = t
	s.mu.Unlock()
}

// Timeouts returns the currently configured connection timeouts.
func (s *Server) Timeouts() Timeouts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.timeouts
}

// Registry returns the registry the server renders on /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Recorder returns the flight recorder behind /events (nil if none).
func (s *Server) Recorder() *obs.FlightRecorder { return s.rec }

// Attach registers an engine with the introspection surface: its sites
// appear under /sites and its decision records under /sites/{name}/explain.
// Engines are never detached — a closed engine's last state remains
// inspectable, which is exactly what a post-mortem wants.
func (s *Server) Attach(e *core.Engine) {
	if e == nil {
		return
	}
	s.mu.Lock()
	s.engines = append(s.engines, e)
	s.mu.Unlock()
}

// snapshot returns the attached engines.
func (s *Server) snapshot() []*core.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*core.Engine, len(s.engines))
	copy(out, s.engines)
	return out
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/{$}", s.handleIndex)
	mux.HandleFunc("/metrics", guard(s.handleMetrics))
	mux.Handle("/debug/vars", expvar.Handler())
	// Site names routinely contain '/' (e.g. "telemetry/AlertSet"), so
	// /sites/{name}/explain is parsed manually rather than with a ServeMux
	// wildcard, which would split on the slashes.
	mux.HandleFunc("/sites", guard(s.handleSites))
	mux.HandleFunc("/sites/", guard(s.handleExplain))
	mux.HandleFunc("/events", guard(s.handleEvents))
	return mux
}

// guard recovers handler panics into a 503. The introspection handlers read
// engines that may be concurrently Close()d; every snapshot method they call
// is mutex-guarded and remains valid after close, but diagnostics must
// degrade to an error response — never take the process down — if that
// invariant ever regresses mid-scrape.
func guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				// If the handler already wrote, this extra status is a
				// no-op on the wire; the client sees a truncated body.
				http.Error(w, fmt.Sprintf("introspection snapshot failed: %v", rec),
					http.StatusServiceUnavailable)
			}
		}()
		h(w, r)
	}
}

// ListenAndServe binds addr (":0" picks a free port), serves the handler on
// a background goroutine and returns the server, the bound address, and a
// 1-buffered channel that carries the terminal serve error. The channel
// receives exactly one value when the accept loop stops: nil after a clean
// Shutdown/Close, the underlying error otherwise — so an embedding process
// (cmd/collserve) fails fast on accept errors instead of silently serving
// nothing. The returned http.Server can be Closed/Shutdown by the caller.
func (s *Server) ListenAndServe(addr string) (*http.Server, string, <-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, err
	}
	srv, errc := s.ServeListener(ln)
	return srv, ln.Addr().String(), errc, nil
}

// ServeListener serves the handler on ln from a background goroutine with
// the configured Timeouts applied, returning the http.Server and the
// terminal-error channel (see ListenAndServe). Split out so callers and
// tests can bring their own listener.
func (s *Server) ServeListener(ln net.Listener) (*http.Server, <-chan error) {
	t := s.Timeouts()
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: t.ReadHeader,
		ReadTimeout:       t.Read,
		WriteTimeout:      t.Write,
		IdleTimeout:       t.Idle,
	}
	errc := make(chan error, 1)
	go func() {
		err := srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		errc <- err
	}()
	return srv, errc
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "collectionswitch introspection\n\n")
	fmt.Fprintf(w, "  /metrics                  Prometheus text exposition\n")
	fmt.Fprintf(w, "  /debug/vars               expvar JSON\n")
	fmt.Fprintf(w, "  /sites                    all allocation contexts (JSON)\n")
	fmt.Fprintf(w, "  /sites/{name}/explain     decision records of one context\n")
	fmt.Fprintf(w, "  /events                   flight-recorder event ring\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := s.reg.WriteTo(w); err != nil {
		// Too late for an error status; the client sees a truncated body.
		return
	}
}

// siteEntry is one /sites row: the engine label plus the context status.
// Confidence echoes the engine's ConfidenceLevel, so a dashboard can tell a
// held site under confidence gating apart from one on a point-estimate
// engine (omitted when gating is off).
type siteEntry struct {
	Engine     string  `json:"engine"`
	Confidence float64 `json:"confidence,omitempty"`
	// Closed marks rows from an engine whose Close has begun: the row is
	// the engine's final state, not a live reading. Scrapes racing a
	// shutdown get last-snapshot semantics instead of an error.
	Closed bool `json:"closed,omitempty"`
	core.SiteStatus
}

func (s *Server) handleSites(w http.ResponseWriter, r *http.Request) {
	engines := s.snapshot()
	entries := make([]siteEntry, 0, 16)
	for _, e := range engines {
		cfg := e.Config()
		closed := e.Closed()
		for _, st := range e.SiteStatuses() {
			entries = append(entries, siteEntry{Engine: cfg.Name, Confidence: cfg.ConfidenceLevel, Closed: closed, SiteStatus: st})
		}
	}
	writeJSON(w, map[string]any{
		"engines": len(engines),
		"count":   len(entries),
		"sites":   entries,
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	name, ok := explainSite(r.URL.Path)
	if !ok {
		http.NotFound(w, r)
		return
	}
	// First engine knowing the site wins; engines are searched in attach
	// order. A site with no analysis pass yet returns an empty record list.
	for _, e := range s.snapshot() {
		for _, st := range e.SiteStatuses() {
			if st.Name != name {
				continue
			}
			writeJSON(w, map[string]any{
				"site":    name,
				"engine":  e.Config().Name,
				"closed":  e.Closed(),
				"variant": st.Variant,
				"records": e.Explain(name),
			})
			return
		}
	}
	http.Error(w, fmt.Sprintf("unknown site %q", name), http.StatusNotFound)
}

// explainSite extracts the site name from /sites/{name}/explain, where
// {name} may itself contain slashes.
func explainSite(path string) (string, bool) {
	rest, ok := strings.CutPrefix(path, "/sites/")
	if !ok {
		return "", false
	}
	name, ok := strings.CutSuffix(rest, "/explain")
	if !ok || name == "" {
		return "", false
	}
	return name, true
}

// eventEntry is one /events row.
type eventEntry struct {
	When  time.Time `json:"when"`
	Kind  obs.Kind  `json:"kind"`
	Event obs.Event `json:"event"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	entries := []eventEntry{}
	var total int64
	if s.rec != nil {
		snap := s.rec.Snapshot()
		total = s.rec.Total()
		entries = make([]eventEntry, len(snap))
		for i, te := range snap {
			entries[i] = eventEntry{When: te.When, Kind: te.Event.EventKind(), Event: te.Event}
		}
	}
	writeJSON(w, map[string]any{
		"total":  total,
		"count":  len(entries),
		"events": entries,
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing more to do.
		_ = err
	}
}
