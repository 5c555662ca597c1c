// Package service is the collection-aware traffic service of ISSUE 9: an
// in-memory index/cache server (keyed membership sets, an int→int map with
// point lookups, sorted series answering range scans) in which every internal
// collection is created through an engine-managed allocation context. It is
// the first scenario where CollectionSwitch's selection runs against real
// concurrency instead of a synthetic replay: the saturation harness
// (cmd/collload) shifts the operation mix phase by phase, and the engine
// re-selects variants live while requests are in flight.
//
// The selection loop only closes a monitoring window when monitored
// instances have died (the finished-ratio gate), and a switched variant only
// affects collections created afterwards — so the stores are deliberately
// churn-friendly: keys are sharded tables of short-lived collections with
// FIFO eviction, and the load generator rotates key generations. Long-lived
// state would freeze selection; dying state feeds it.
//
// The HTTP surface mounts the diag introspection handler behind the store
// routes, so one port serves traffic, /metrics, /sites and /events.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// FixedModes lists the -fixed variant pins accepted by Config.Fixed, beside
// "" (adaptive). Each mode pins all three stores to one catalog variant
// family, giving the load harness its fixed-variant baselines.
func FixedModes() []string {
	return []string{"hash", "openhash", "array", "sortedarray", "avltree", "skiplist"}
}

// fixedMode maps a mode name to the set and map variant it pins.
var fixedMode = map[string]struct{ set, mp collections.VariantID }{
	"hash":        {collections.HashSetID, collections.HashMapID},
	"openhash":    {collections.OpenHashSetFastID, collections.OpenHashMapFastID},
	"array":       {collections.ArraySetID, collections.ArrayMapID},
	"sortedarray": {collections.SortedArraySetID, collections.SortedArrayMapID},
	"avltree":     {collections.AVLTreeSetID, collections.AVLTreeMapID},
	"skiplist":    {collections.SkipListSetID, collections.SkipListMapID},
}

// Config parameterizes a Service.
type Config struct {
	// Engine seeds the selection engine's configuration. Sink and Metrics
	// may be nil (the service builds its own registry and flight recorder
	// and tees any provided sink in). Name defaults to "collserve".
	Engine core.Config
	// Manual builds the engine without the background analysis loop; the
	// caller (tests) drives AnalyzeNow explicitly.
	Manual bool
	// Fixed pins every store to one variant (see FixedModes); "" runs
	// adaptive selection. Fixed-mode contexts have a single candidate, so
	// the selection rule can never switch them — the honest baseline.
	Fixed string
	// Shards is the lock-shard count per store (default 8).
	Shards int
	// MaxKeysPerShard caps live keys per shard per store, evicting FIFO
	// (default 512; <0 disables eviction — selection will starve).
	MaxKeysPerShard int
	// StoreDir, when non-"", opens a tuner warm-start store there: the
	// engine warm-starts from persisted decisions and Shutdown records
	// final site snapshots back.
	StoreDir string
	// Timeouts bounds server-side connection I/O; the zero value takes
	// diag.DefaultTimeouts (the hardened defaults of this PR).
	Timeouts diag.Timeouts
}

// Service is a running (or startable) traffic service instance.
type Service struct {
	cfg     Config
	engine  *core.Engine
	reg     *obs.Registry
	rec     *obs.FlightRecorder
	diagSrv *diag.Server
	store   *tuner.Store

	setCtx   *core.SetContext[int64]
	kvCtx    *core.MapContext[int64, int64]
	rangeCtx *core.SetContext[int64]

	sets   *keyedShards[string, collections.Set[int64]]
	kv     *keyedShards[int64, collections.Map[int64, int64]]
	ranges *keyedShards[string, collections.Set[int64]]

	ops      [workload.NumServiceOps]atomic.Int64
	badReqs  atomic.Int64
	draining atomic.Bool

	httpSrv  *http.Server
	serveErr <-chan error
	addr     string
	started  time.Time // /stats uptime counts from here
}

// New wires a Service: engine, allocation contexts, stores, diag surface and
// external metrics. Start it with Start, stop it with Shutdown.
func New(cfg Config) (*Service, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.MaxKeysPerShard == 0 {
		cfg.MaxKeysPerShard = 512
	}
	if cfg.Engine.Name == "" {
		cfg.Engine.Name = "collserve"
	}
	if cfg.Fixed != "" {
		if _, ok := fixedMode[cfg.Fixed]; !ok {
			return nil, fmt.Errorf("unknown fixed mode %q (have %v)", cfg.Fixed, FixedModes())
		}
	}

	s := &Service{cfg: cfg, started: time.Now()}
	s.reg = cfg.Engine.Metrics
	if s.reg == nil {
		s.reg = obs.NewRegistry()
		cfg.Engine.Metrics = s.reg
	}
	s.rec = obs.NewFlightRecorder(1024)
	// Tee events into the flight recorder and per-kind counters alongside
	// whatever sink the caller supplied (Multi drops nils).
	cfg.Engine.Sink = obs.Multi(cfg.Engine.Sink, s.rec, obs.CountingSink(s.reg))

	if cfg.StoreDir != "" {
		s.store = tuner.Open(cfg.StoreDir, cfg.Engine.Sink, s.reg)
		cfg.Engine.WarmStart = s.store
		if m := s.store.Models(); m != nil && cfg.Engine.Models == nil {
			cfg.Engine.Models = m
		}
	}

	if cfg.Manual {
		s.engine = core.NewEngineManual(cfg.Engine)
	} else {
		s.engine = core.NewEngine(cfg.Engine)
	}

	if err := s.buildContexts(); err != nil {
		s.engine.Close()
		return nil, err
	}

	s.sets = newKeyedShards[string, collections.Set[int64]](cfg.Shards, cfg.MaxKeysPerShard)
	s.kv = newKeyedShards[int64, collections.Map[int64, int64]](cfg.Shards, cfg.MaxKeysPerShard)
	s.ranges = newKeyedShards[string, collections.Set[int64]](cfg.Shards, cfg.MaxKeysPerShard)

	s.diagSrv = diag.New(s.reg, s.rec)
	if s.cfg.Timeouts == (diag.Timeouts{}) {
		s.cfg.Timeouts = diag.DefaultTimeouts()
	}
	s.diagSrv.SetTimeouts(s.cfg.Timeouts)
	s.diagSrv.Attach(s.engine)
	s.registerMetrics()
	return s, nil
}

// setVariantByID resolves one set variant (default pool + sorted extension).
func setVariantByID(id collections.VariantID) (collections.SetVariant[int64], error) {
	pool := append(collections.SetVariants[int64](), collections.SortedSetVariants[int64]()...)
	for _, v := range pool {
		if v.ID == id {
			return v, nil
		}
	}
	return collections.SetVariant[int64]{}, fmt.Errorf("no set variant %q", id)
}

// mapVariantByID resolves one map variant (default pool + sorted extension).
func mapVariantByID(id collections.VariantID) (collections.MapVariant[int64, int64], error) {
	pool := append(collections.MapVariants[int64, int64](), collections.SortedMapVariants[int64, int64]()...)
	for _, v := range pool {
		if v.ID == id {
			return v, nil
		}
	}
	return collections.MapVariant[int64, int64]{}, fmt.Errorf("no map variant %q", id)
}

// buildContexts creates the three allocation contexts. In adaptive mode the
// range store's candidate pool is the default sets plus the sorted variants
// — the pool where phase shifts actually flip the winner: sorted-array scans
// in O(log n + k) but populates in O(n²)-ish shifted inserts, hash populates
// linearly but scans by full iteration.
func (s *Service) buildContexts() error {
	e := s.engine
	if s.cfg.Fixed != "" {
		pin := fixedMode[s.cfg.Fixed]
		sv, err := setVariantByID(pin.set)
		if err != nil {
			return err
		}
		mv, err := mapVariantByID(pin.mp)
		if err != nil {
			return err
		}
		s.setCtx = core.NewSetContextWithVariants(e, []collections.SetVariant[int64]{sv},
			core.WithName("service/sets"), core.WithDefaultVariant(sv.ID))
		s.kvCtx = core.NewMapContextWithVariants(e, []collections.MapVariant[int64, int64]{mv},
			core.WithName("service/kv"), core.WithDefaultVariant(mv.ID))
		s.rangeCtx = core.NewSetContextWithVariants(e, []collections.SetVariant[int64]{sv},
			core.WithName("service/range"), core.WithDefaultVariant(sv.ID))
		return nil
	}
	s.setCtx = core.NewSetContextWithVariants(e, collections.SetVariants[int64](),
		core.WithName("service/sets"))
	s.kvCtx = core.NewMapContextWithVariants(e, collections.MapVariants[int64, int64](),
		core.WithName("service/kv"))
	rangePool := append(collections.SetVariants[int64](), collections.SortedSetVariants[int64]()...)
	s.rangeCtx = core.NewSetContextWithVariants(e, rangePool,
		core.WithName("service/range"), core.WithDefaultVariant(collections.HashSetID))
	return nil
}

// registerMetrics publishes the service's domain counters through the shared
// registry, so /metrics carries request rates beside selection metrics.
func (s *Service) registerMetrics() {
	for op := workload.ServiceOp(0); op < workload.NumServiceOps; op++ {
		op := op
		s.reg.RegisterExternal("collserve_"+op.String()+"_total",
			fmt.Sprintf("%s requests handled", op), true,
			func() float64 { return float64(s.ops[op].Load()) })
	}
	s.reg.RegisterExternal("collserve_requests_total", "service requests handled", true,
		func() float64 { return float64(s.RequestsTotal()) })
	s.reg.RegisterExternal("collserve_bad_requests_total", "requests rejected for bad parameters", true,
		func() float64 { return float64(s.badReqs.Load()) })
	s.reg.RegisterExternal("collserve_evictions_total", "collections evicted FIFO from the stores", true,
		func() float64 {
			return float64(s.sets.evicted.Load() + s.kv.evicted.Load() + s.ranges.evicted.Load())
		})
	s.reg.RegisterExternal("collserve_live_keys", "live keys across all stores", false,
		func() float64 { return float64(s.sets.keys() + s.kv.keys() + s.ranges.keys()) })
}

// RequestsTotal returns the number of store requests handled so far.
func (s *Service) RequestsTotal() int64 {
	var n int64
	for i := range s.ops {
		n += s.ops[i].Load()
	}
	return n
}

// Engine returns the selection engine (tests drive AnalyzeNow through it).
func (s *Service) Engine() *core.Engine { return s.engine }

// Registry returns the shared metrics registry.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Recorder returns the flight recorder behind /events.
func (s *Service) Recorder() *obs.FlightRecorder { return s.rec }

// Addr returns the bound listen address after Start.
func (s *Service) Addr() string { return s.addr }

// Err returns the serving goroutine's terminal-error channel (nil before
// Start). It yields exactly one value when the accept loop stops: nil after
// a clean Shutdown, the accept error otherwise. Shutdown consumes the value
// itself and folds it into its return — select on Err only while the
// service is meant to keep running (the collserve fail-fast path).
func (s *Service) Err() <-chan error { return s.serveErr }

// Handler returns the full route table: store endpoints first, the diag
// introspection surface (/metrics, /sites, /events, /debug/vars) as the
// fallback.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/set/add", s.handleSet(workload.OpSetAdd))
	mux.HandleFunc("/set/has", s.handleSet(workload.OpSetHas))
	mux.HandleFunc("/set/rem", s.handleSetRem)
	mux.HandleFunc("/set/drop", s.handleSetDrop)
	mux.HandleFunc("/kv/put", s.handleKV(workload.OpKVPut))
	mux.HandleFunc("/kv/get", s.handleKV(workload.OpKVGet))
	mux.HandleFunc("/range/add", s.handleRangeAdd)
	mux.HandleFunc("/range/scan", s.handleRangeScan)
	mux.HandleFunc("/range/drop", s.handleRangeDrop)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("/", s.diagSrv.Handler())
	return mux
}

// Start binds addr (":0" picks a free port) and serves the handler on a
// background goroutine with the configured timeouts. Bind errors return
// immediately; accept-loop failures surface on Err. The /stats uptime counts
// from here; a handler served without Start counts from New.
func (s *Service) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	s.started = time.Now()
	t := s.cfg.Timeouts
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: t.ReadHeader,
		ReadTimeout:       t.Read,
		WriteTimeout:      t.Write,
		IdleTimeout:       t.Idle,
	}
	errc := make(chan error, 1)
	go func() {
		err := s.httpSrv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		errc <- err
	}()
	s.serveErr = errc
	return nil
}

// Shutdown runs the graceful lifecycle: stop accepting and drain in-flight
// requests (bounded by ctx), fold the last monitored instances with a final
// analysis pass, persist site snapshots to the warm-start store (if one is
// attached), then close the engine. It returns the first error encountered
// while still performing the remaining steps. The drain can wait up to 5 s
// for a connection that was dialed but never sent a request: net/http counts
// such a connection as busy until it is 5 s old.
func (s *Service) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			keep(err)
			s.httpSrv.Close() // drain deadline hit: cut remaining conns
		}
		keep(<-s.serveErr)
	}
	// All requests have finished; a GC proves the evicted and short-lived
	// instances unreachable so the final pass folds them into the record
	// the store persists.
	runtime.GC()
	s.engine.AnalyzeNow()
	if s.store != nil {
		s.store.RecordSites(s.engine.SiteSnapshots())
		keep(s.store.Save())
	}
	s.engine.Close()
	return first
}

// --- request handlers -------------------------------------------------------

// queryGet returns url.ParseQuery(raw).Get(name) without building the
// url.Values: the value of the first pair whose key unescapes to name. Like
// ParseQuery it skips empty pairs, pairs holding ';' and pairs whose key or
// value does not unescape. url.QueryUnescape returns a string without '%'
// or '+' as it is, so a plain query allocates nothing.
func queryGet(raw, name string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != name {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// qInt64 parses a required int64 query parameter.
func qInt64(r *http.Request, name string) (int64, error) {
	v := queryGet(r.URL.RawQuery, name)
	if v == "" {
		return 0, fmt.Errorf("missing %q", name)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %q: %v", name, err)
	}
	return n, nil
}

// qCount parses the optional batch parameter cnt (default 1, capped at
// maxBatch). Batched adds and scans let one request express a bulk ingest or
// multi-window dashboard query — and make collection cost, not HTTP
// framing, the dominant term the latency histograms see.
const maxBatch = 64

func qCount(r *http.Request) int {
	v := queryGet(r.URL.RawQuery, "cnt")
	if v == "" {
		return 1
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 1
	}
	if n > maxBatch {
		return maxBatch
	}
	return n
}

// batchStride spreads the members of a batched add: value i is
// base + i*batchStride, giving sorted variants realistic scattered inserts
// rather than one contiguous run.
const batchStride = 997

func (s *Service) badRequest(w http.ResponseWriter, err error) {
	s.badReqs.Add(1)
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// replyBool answers "1" or "0". Every reply writes its whole body, newline
// included, in one call and never touches w.Header(): net/http then sniffs
// the same "text/plain; charset=utf-8" the handlers used to set and has no
// header map to clone.
func replyBool(w http.ResponseWriter, b bool) {
	if b {
		io.WriteString(w, "1\n")
	} else {
		io.WriteString(w, "0\n")
	}
}

// handleSet serves /set/add and /set/has over the keyed membership sets.
func (s *Service) handleSet(op workload.ServiceOp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := queryGet(r.URL.RawQuery, "key")
		if key == "" {
			s.badRequest(w, fmt.Errorf("missing %q", "key"))
			return
		}
		m, err := qInt64(r, "m")
		if err != nil {
			s.badRequest(w, err)
			return
		}
		s.ops[op].Add(1)
		var res bool
		if op == workload.OpSetAdd {
			cnt := qCount(r)
			s.sets.write(key, func() collections.Set[int64] { return s.setCtx.NewSet() },
				func(set collections.Set[int64]) {
					for i := 0; i < cnt; i++ {
						res = set.Add(m+int64(i)*batchStride) || res
					}
				})
		} else {
			s.sets.read(key, func(set collections.Set[int64]) { res = set.Contains(m) })
		}
		replyBool(w, res)
	}
}

func (s *Service) handleSetRem(w http.ResponseWriter, r *http.Request) {
	key := queryGet(r.URL.RawQuery, "key")
	m, err := qInt64(r, "m")
	if key == "" || err != nil {
		s.badRequest(w, fmt.Errorf("need key and m"))
		return
	}
	s.ops[workload.OpSetAdd].Add(1) // mutation; counted with the write op
	var res bool
	s.sets.write(key, func() collections.Set[int64] { return s.setCtx.NewSet() },
		func(set collections.Set[int64]) { res = set.Remove(m) })
	replyBool(w, res)
}

func (s *Service) handleSetDrop(w http.ResponseWriter, r *http.Request) {
	key := queryGet(r.URL.RawQuery, "key")
	if key == "" {
		s.badRequest(w, fmt.Errorf("missing %q", "key"))
		return
	}
	s.ops[workload.OpSetAdd].Add(1)
	replyBool(w, s.sets.remove(key))
}

// kvBucketShift groups map keys into buckets of 2^kvBucketShift consecutive
// keys, one engine-managed map per bucket, keyed by the bucket number
// k>>kvBucketShift.
const kvBucketShift = 10

// handleKV serves /kv/put and /kv/get over the bucketed int→int map store.
func (s *Service) handleKV(op workload.ServiceOp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		k, err := qInt64(r, "k")
		if err != nil {
			s.badRequest(w, err)
			return
		}
		var v int64
		if op == workload.OpKVPut {
			if v, err = qInt64(r, "v"); err != nil {
				s.badRequest(w, err)
				return
			}
		}
		s.ops[op].Add(1)
		bucket := k >> kvBucketShift
		if op == workload.OpKVPut {
			var had bool
			s.kv.write(bucket, func() collections.Map[int64, int64] { return s.kvCtx.NewMap() },
				func(m collections.Map[int64, int64]) { _, had = m.Put(k, v) })
			replyBool(w, had)
			return
		}
		var ok bool
		s.kv.read(bucket, func(m collections.Map[int64, int64]) { v, ok = m.Get(k) })
		if !ok {
			io.WriteString(w, "miss\n")
			return
		}
		var buf [24]byte
		w.Write(append(strconv.AppendInt(buf[:0], v, 10), '\n'))
	}
}

func (s *Service) handleRangeAdd(w http.ResponseWriter, r *http.Request) {
	series := queryGet(r.URL.RawQuery, "series")
	t, err := qInt64(r, "t")
	if series == "" || err != nil {
		s.badRequest(w, fmt.Errorf("need series and t"))
		return
	}
	s.ops[workload.OpRangeAdd].Add(1)
	cnt := qCount(r)
	var res bool
	s.ranges.write(series, func() collections.Set[int64] { return s.rangeCtx.NewSet() },
		func(set collections.Set[int64]) {
			for i := 0; i < cnt; i++ {
				res = set.Add(t+int64(i)*batchStride) || res
			}
		})
	replyBool(w, res)
}

// handleRangeScan answers an ordered scan over one series: count and sum of
// the elements in [from, to]. When the live instance is a sorted variant it
// answers via Range in O(log n + k); otherwise it falls back to a full
// filtered iteration — the asymmetry the engine's scan-phase switches buy.
func (s *Service) handleRangeScan(w http.ResponseWriter, r *http.Request) {
	series := queryGet(r.URL.RawQuery, "series")
	from, err1 := qInt64(r, "from")
	to, err2 := qInt64(r, "to")
	if series == "" || err1 != nil || err2 != nil {
		s.badRequest(w, fmt.Errorf("need series, from, to"))
		return
	}
	s.ops[workload.OpRangeScan].Add(1)
	cnt := qCount(r)
	width := to - from
	// cnt stepped windows [from+i*width, to+i*width] — one dashboard query
	// over many adjacent buckets — share one visitor. Range only yields the
	// window, so the bounds check filters the ForEach fallback alone.
	var win struct{ lo, hi, count, sum int64 }
	visit := func(v int64) bool {
		if v >= win.lo && v <= win.hi {
			win.count++
			win.sum += v
		}
		return true
	}
	sorted := false
	s.ranges.read(series, func(set collections.Set[int64]) {
		ss, isSorted := set.(collections.SortedSet[int64])
		sorted = isSorted
		for i := 0; i < cnt; i++ {
			win.lo, win.hi = from+int64(i)*width, to+int64(i)*width
			if isSorted {
				ss.Range(win.lo, win.hi, visit)
			} else {
				set.ForEach(visit)
			}
		}
	})
	var buf [64]byte
	b := strconv.AppendInt(buf[:0], win.count, 10)
	b = strconv.AppendInt(append(b, ' '), win.sum, 10)
	b = strconv.AppendBool(append(b, " sorted="...), sorted)
	w.Write(append(b, '\n'))
}

func (s *Service) handleRangeDrop(w http.ResponseWriter, r *http.Request) {
	series := queryGet(r.URL.RawQuery, "series")
	if series == "" {
		s.badRequest(w, fmt.Errorf("missing %q", "series"))
		return
	}
	s.ops[workload.OpRangeAdd].Add(1)
	replyBool(w, s.ranges.remove(series))
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

// statsSnapshot is the /stats payload: the service-side view a load harness
// needs to interpret a run.
type statsSnapshot struct {
	Requests     int64             `json:"requests"`
	BadRequests  int64             `json:"bad_requests"`
	Ops          map[string]int64  `json:"ops"`
	LiveKeys     map[string]int    `json:"live_keys"`
	Created      map[string]int64  `json:"collections_created"`
	Evicted      map[string]int64  `json:"collections_evicted"`
	Variants     map[string]string `json:"variants"`
	Transitions  int64             `json:"transitions"`
	Fixed        string            `json:"fixed,omitempty"`
	EngineClosed bool              `json:"engine_closed,omitempty"`
	Uptime       string            `json:"uptime"` // since Start, or New without it
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := statsSnapshot{
		Requests:    s.RequestsTotal(),
		BadRequests: s.badReqs.Load(),
		Ops:         make(map[string]int64, int(workload.NumServiceOps)),
		LiveKeys: map[string]int{
			"sets": s.sets.keys(), "kv": s.kv.keys(), "range": s.ranges.keys(),
		},
		Created: map[string]int64{
			"sets": s.sets.created.Load(), "kv": s.kv.created.Load(), "range": s.ranges.created.Load(),
		},
		Evicted: map[string]int64{
			"sets": s.sets.evicted.Load(), "kv": s.kv.evicted.Load(), "range": s.ranges.evicted.Load(),
		},
		Variants: map[string]string{
			"service/sets":  string(s.setCtx.CurrentVariant()),
			"service/kv":    string(s.kvCtx.CurrentVariant()),
			"service/range": string(s.rangeCtx.CurrentVariant()),
		},
		Transitions:  s.reg.TransitionsTotal(),
		Fixed:        s.cfg.Fixed,
		EngineClosed: s.engine.Closed(),
		Uptime:       time.Since(s.started).Round(time.Millisecond).String(),
	}
	for op := workload.ServiceOp(0); op < workload.NumServiceOps; op++ {
		snap.Ops[op.String()] = s.ops[op].Load()
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		// Headers are gone; the client sees a truncated body.
		_ = err
	}
}
