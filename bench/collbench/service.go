package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/promtext"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Load shape. The generator is one process with two connections per
// server, each a closed loop (the next request leaves when the previous
// answer arrived). An untraced run measures serviceServers server processes
// in turns of serviceSlice, each turn followed by an echoSlice turn of the
// collecho reference (reference.go) on the same client.
const (
	loadConns      = 2
	serviceServers = 3  // processes an untraced run measures; each picks its own variants
	setupStarts    = 15 // server and collecho starts setup_s is the median over
	serviceSlice   = 100 * time.Millisecond
	echoSlice      = 50 * time.Millisecond
	warmGens       = 5 // key generations each server sees before the measured turns
	openRate       = 6000.0
)

// sizing is the committed collload sizing of scripts/service_load.sh: few
// large set keys, moderate range series, batched adds and scans. Key
// generations rotate so server collections keep dying. collload rotates
// every 3 s; here a generation is genRequests requests to one server, about
// 2 s of one server's share of the measured turns, so collection sizes do
// not follow the host's speed.
var sizing = struct {
	series, rSeries                int
	span, rSpan, scanWidth, kvSpan int64
	genRequests                    int64
	addBurst, rAddBurst, scanBurst int
}{4, 12, 1000000, 40000, 1000, 65536, 12000, 64, 16, 16}

// requestURL builds one request of op for key generation gen, as collload
// does.
func requestURL(base string, op workload.ServiceOp, r *rand.Rand, gen int64) string {
	z := sizing
	switch op {
	case workload.OpSetAdd:
		return fmt.Sprintf("%s/set/add?key=s%d-%d&m=%d&cnt=%d", base, gen, r.Intn(z.series), r.Int63n(z.span), z.addBurst)
	case workload.OpSetHas:
		return fmt.Sprintf("%s/set/has?key=s%d-%d&m=%d", base, gen, r.Intn(z.series), r.Int63n(z.span))
	case workload.OpKVPut:
		return fmt.Sprintf("%s/kv/put?k=%d&v=%d", base, gen*z.kvSpan+r.Int63n(z.kvSpan), r.Int63())
	case workload.OpKVGet:
		return fmt.Sprintf("%s/kv/get?k=%d", base, gen*z.kvSpan+r.Int63n(z.kvSpan))
	case workload.OpRangeAdd:
		return fmt.Sprintf("%s/range/add?series=r%d-%d&t=%d&cnt=%d", base, gen, r.Intn(z.rSeries), r.Int63n(z.rSpan), z.rAddBurst)
	default:
		from := r.Int63n(z.rSpan)
		return fmt.Sprintf("%s/range/scan?series=r%d-%d&from=%d&to=%d&cnt=%d", base, gen, r.Intn(z.rSeries), from, from+z.scanWidth, z.scanBurst)
	}
}

// wellFormed reports whether body is a valid answer to op.
func wellFormed(op workload.ServiceOp, body string) bool {
	body = strings.TrimSuffix(body, "\n")
	switch op {
	case workload.OpKVGet:
		if body == "miss" {
			return true
		}
		_, err := strconv.ParseInt(body, 10, 64)
		return err == nil
	case workload.OpRangeScan:
		var count, sum int64
		var sorted bool
		n, err := fmt.Sscanf(body, "%d %d sorted=%t", &count, &sum, &sorted)
		return err == nil && n == 3 && count >= 0
	default:
		return body == "0" || body == "1"
	}
}

// sample is one answered (or failed) request.
type sample struct {
	op     workload.ServiceOp
	at     time.Duration // completion (closed loop) or due time (open loop) since the phase began
	lat    time.Duration // from send (closed loop) or due time (open loop)
	late   time.Duration // open loop: dispatch after due time
	client uint64        // client span ID when traced
	ok     bool
}

// loadgen drives one server with the mix of one workload.
type loadgen struct {
	base    string
	mix     workload.ServiceMix
	seed    int64
	echo    bool         // the server is collecho: answers are not parsed
	sent    atomic.Int64 // requests sent; key generations count them
	clients []*http.Client
	tr      *tracer
	phase   span
	rounds  int // phases run so far; varies the request streams
}

func newLoadgen(base string, mix workload.ServiceMix, seed int64) *loadgen {
	g := &loadgen{base: base, mix: mix, seed: seed}
	for c := 0; c < loadConns; c++ {
		g.clients = append(g.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   30 * time.Second,
		})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// do sends one request of op on connection c; traced requests carry a
// client span and the span header.
func (g *loadgen) do(c int, op workload.ServiceOp, r *rand.Rand, traced bool) (ok bool, client uint64) {
	gen := (g.sent.Add(1) - 1) / sizing.genRequests
	req, err := http.NewRequest(http.MethodGet, requestURL(g.base, op, r, gen), nil)
	if err != nil {
		return false, 0
	}
	var cs span
	if traced {
		cs = g.tr.begin(g.phase.ID, 0, "http", "client "+op.String())
		req.Header.Set(spanHeader, fmt.Sprintf("%d-%d", cs.Trace, cs.ID))
		defer g.tr.end(cs)
	}
	resp, err := g.clients[c].Do(req)
	if err != nil {
		return false, cs.ID
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK && (g.echo || wellFormed(op, string(body))), cs.ID
}

// closed runs every connection as a closed loop for d and returns the
// samples and the time until the last answer. traced decides per request,
// from the time into the phase, whether it is traced.
func (g *loadgen) closed(d time.Duration, traced func(time.Duration) bool) ([][]sample, time.Duration) {
	g.rounds++
	out := make([][]sample, len(g.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range g.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(g.seed*7919 + int64(g.rounds*loadConns+c)))
			for {
				t0 := time.Now()
				at := t0.Sub(start)
				if at >= d {
					return
				}
				op := g.mix.Pick(r)
				ok, id := g.do(c, op, r, traced != nil && traced(at))
				done := time.Now()
				out[c] = append(out[c], sample{op: op, at: done.Sub(start), lat: done.Sub(t0), client: id, ok: ok})
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// open sends at a fixed rate for d, whatever the answers, timing each
// request from when it was due. The dispatcher wakes about once a
// millisecond (the sleep granularity here) and releases every due request.
func (g *loadgen) open(d time.Duration, rate float64) [][]sample {
	g.rounds++
	type due struct {
		at, late time.Duration
	}
	// Sized for 0.5 s of schedule, so a server stall shows as latency
	// measured from the due time, not as the dispatcher blocking.
	queue := make(chan due, int(rate/2))
	start := time.Now()
	go func() {
		defer close(queue)
		sent := 0
		for {
			now := time.Since(start)
			if now >= d {
				return
			}
			for n := int(now.Seconds() * rate); sent < n; sent++ {
				at := time.Duration(float64(sent) / rate * float64(time.Second))
				queue <- due{at: at, late: time.Since(start) - at}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	out := make([][]sample, len(g.clients))
	var wg sync.WaitGroup
	for c := range g.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(g.seed*7919 + int64(g.rounds*loadConns+c)))
			for q := range queue {
				op := g.mix.Pick(r)
				ok, _ := g.do(c, op, r, false)
				out[c] = append(out[c], sample{op: op, at: q.at, lat: time.Since(start) - q.at, late: q.late, ok: ok})
			}
		}(c)
	}
	wg.Wait()
	return out
}

// windows groups samples into whole seconds of the phase, dropping the
// partial last second.
func windows(per [][]sample, d time.Duration) [][]sample {
	w := make([][]sample, int(d/time.Second))
	for _, ss := range per {
		for _, s := range ss {
			if k := int(s.at / time.Second); k < len(w) {
				w[k] = append(w[k], s)
			}
		}
	}
	return w
}

func latMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.lat) / 1e6
	}
	return out
}

func flatten(per [][]sample) []sample {
	var out []sample
	for _, ss := range per {
		out = append(out, ss...)
	}
	return out
}

// tally adds samples to the correctness counts.
func tally(res *result, per [][]sample) {
	for _, ss := range per {
		for _, s := range ss {
			res.check(s.ok)
		}
	}
}

// metricsScrape reads /metrics through the strict exposition parser and
// sums every family's samples.
func metricsScrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := promtext.Parse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	out := make(map[string]float64, len(fams))
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == f.Name || s.Name == f.Name+"_count" || s.Name == f.Name+"_sum" {
				out[s.Name] += s.Value
			}
		}
	}
	return out, nil
}

// serviceStats is the part of /stats the benchmark reads.
type serviceStats struct {
	Created  map[string]int64  `json:"collections_created"`
	Evicted  map[string]int64  `json:"collections_evicted"`
	Variants map[string]string `json:"variants"`
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func sumValues(m map[string]int64) float64 {
	var s int64
	for _, v := range m {
		s += v
	}
	return float64(s)
}

// serviceWarmup returns how many requests each server gets before its
// measured closed loop, and the traced run's open-loop length. A fresh
// server's set site starts on its declared variant and switches a few key
// generations later; warmGens generations cover that.
func serviceWarmup(o runOpts) (requests int64, open time.Duration) {
	if o.quick {
		return 2000, time.Second
	}
	return warmGens * sizing.genRequests, max(2*time.Second, o.seconds/3)
}

// warmCap bounds the warm-up on a host too slow to finish it.
const warmCap = 40 * time.Second

// warmUp gives each server closed-loop turns until it has received the
// warm-up's requests.
func warmUp(o runOpts, gens []*loadgen, res *result) {
	want, _ := serviceWarmup(o)
	for start := time.Now(); time.Since(start) < warmCap; {
		done := true
		for _, g := range gens {
			if g.sent.Load() < want {
				done = false
				per, _ := g.closed(serviceSlice, nil)
				tally(res, per)
			}
		}
		if done {
			return
		}
	}
}

// runService measures a service workload. Set-up is timed over server
// starts alternating with collecho starts. Then serviceServers servers and
// collecho run side by side: a warm-up, the measured turns, and a quiet
// oracle check on fresh keys per server. The traced run is tracedService.
func runService(o runOpts, mixName string, res *result) error {
	mix, ok := workload.MixByName(mixName)
	if !ok {
		return fmt.Errorf("unknown mix %q", mixName)
	}
	if o.trace {
		return tracedService(o, mix, res)
	}
	starts := map[string][]float64{}
	var mem []float64
	for i := 0; i < setupStarts; i++ {
		for _, kind := range []string{"serve", "echo"} {
			srv, err := startServer(kind)
			if err != nil {
				return err
			}
			starts[kind] = append(starts[kind], srv.setup.Seconds())
			if kind == "serve" && i < memProbes {
				mb, err := memProbe(srv.base, mix, res)
				if err != nil {
					srv.kill()
					return err
				}
				mem = append(mem, mb)
			}
			if err := srv.stop(); err != nil {
				return fmt.Errorf("stopping %s child: %w", kind, err)
			}
		}
	}
	peak := medianRow("peak_mem_mb", "MB", mem)
	peak.Note = "live heap a fresh server holds for one key generation of the mix, one key per store"
	setup := scalarRow("setup_s", "s", stats.Median(starts["serve"])/stats.Median(starts["echo"])*refEchoStartNominal, setupStarts)
	setup.Note = fmt.Sprintf("server start-up at reference speed: median %.4g s over median collecho start-up %.4g s, times %.4g s",
		stats.Median(starts["serve"]), stats.Median(starts["echo"]), refEchoStartNominal)

	var procs []*server
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()
	var gens []*loadgen
	for k := 0; k < serviceServers; k++ {
		srv, err := startServer("serve")
		if err != nil {
			return err
		}
		procs = append(procs, srv)
		gens = append(gens, newLoadgen(srv.base, mix, o.seed*int64(serviceServers)+int64(k)))
	}
	echoSrv, err := startServer("echo")
	if err != nil {
		return err
	}
	procs = append(procs, echoSrv)
	echo := newLoadgen(echoSrv.base, mix, o.seed)
	echo.echo = true
	defer echo.close()
	for _, g := range gens {
		defer g.close()
	}

	warmUp(o, gens, res)
	per, _ := echo.closed(echoSlice, nil)
	tally(res, per)
	m, err := measureTurns(o, gens, echo, res)
	if err != nil {
		return err
	}
	for k, g := range gens {
		if m.servers[k].peakMB, err = procs[k].peakRSSMB(); err != nil {
			return err
		}
		oracleCheck(g.base, o.seed*int64(serviceServers)+int64(k), res)
	}
	for len(procs) > 0 {
		p := procs[len(procs)-1]
		procs = procs[:len(procs)-1]
		if err := p.stop(); err != nil {
			return fmt.Errorf("stopping child: %w", err)
		}
	}

	rows := append([]row{setup, peak}, m.endToEnd()...)
	if res.Metrics, err = ordered(endToEnd, rows); err != nil {
		return err
	}
	res.Detail = append(m.detail(),
		medianRow("setup.raw_s", "s", starts["serve"]),
		medianRow("reference.start_s", "s", starts["echo"]))
	res.Variants = map[string]string{}
	for _, sv := range m.servers {
		for site, v := range sv.st1.Variants {
			res.Variants[site] = strings.TrimPrefix(res.Variants[site]+"+"+v, "+")
		}
	}
	return nil
}

// turn is one closed loop in the measured schedule: a server's or
// collecho's.
type turn struct {
	samples []sample
	dur     time.Duration
}

// perRequest is the turn's time per request in seconds.
func (t turn) perRequest() float64 { return t.dur.Seconds() / float64(len(t.samples)) }

// medianMs is the turn's median latency in milliseconds.
func (t turn) medianMs() float64 { return stats.Median(latMs(t.samples)) }

// serverTurns is what one server child reported around the measured turns.
type serverTurns struct {
	before, after serverSnapshot
	st0, st1      serviceStats
	peakMB        float64 // VmHWM after the turns
}

// turnsRun is the measured part of an untraced service run. echoes[k] and
// echoes[k+1] are collecho's turns right before and after turns[k].
type turnsRun struct {
	turns   []turn
	echoes  []turn
	servers []serverTurns
	loadCPU float64 // generator CPU cores over the turns
}

// measureTurns gives each server in turn a closed loop of serviceSlice,
// each preceded and followed by a closed loop of echoSlice on collecho,
// until -seconds are up, and scrapes every server before and after.
func measureTurns(o runOpts, gens []*loadgen, echo *loadgen, res *result) (*turnsRun, error) {
	m := &turnsRun{servers: make([]serverTurns, len(gens))}
	var err error
	for k, g := range gens {
		sv := &m.servers[k]
		if sv.before, _, sv.st0, err = scrapeServer(g.base); err != nil {
			return nil, err
		}
	}
	run := func(g *loadgen, d time.Duration) turn {
		per, dur := g.closed(d, nil)
		tally(res, per)
		return turn{samples: flatten(per), dur: dur}
	}
	cpu0, start := rusageNs(), time.Now()
	m.echoes = append(m.echoes, run(echo, echoSlice))
	for time.Since(start) < o.seconds {
		for _, g := range gens {
			m.turns = append(m.turns, run(g, serviceSlice))
			m.echoes = append(m.echoes, run(echo, echoSlice))
		}
	}
	m.loadCPU = float64(rusageNs()-cpu0) / float64(time.Since(start))
	for k, g := range gens {
		sv := &m.servers[k]
		if sv.after, _, sv.st1, err = scrapeServer(g.base); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// served returns the requests of turns, and the time they took.
func served(turns []turn) (all []sample, d time.Duration) {
	for _, t := range turns {
		all = append(all, t.samples...)
		d += t.dur
	}
	return all, d
}

// endToEnd reports the time ratios and the servers' allocation per request.
// Each server turn is divided by the mean of the collecho turns on either
// side of it; the ratios are medians over server turns.
func (m *turnsRun) endToEnd() []row {
	var timeX, latX []float64
	for k, t := range m.turns {
		before, after := m.echoes[k], m.echoes[k+1]
		timeX = append(timeX, t.perRequest()/((before.perRequest()+after.perRequest())/2))
		latX = append(latX, t.medianMs()/((before.medianMs()+after.medianMs())/2))
	}
	var alloc uint64
	for _, sv := range m.servers {
		alloc += sv.after.Proc.TotalAlloc - sv.before.Proc.TotalAlloc
	}
	all, _ := served(m.turns)
	return []row{
		medianRow("time_x", "x", timeX),
		medianRow("latency_x", "x", latX),
		scalarRow("alloc_kb", "KB", float64(alloc)/float64(len(all))/1024, len(all)),
	}
}

// memProbes is how many of the set-up's fresh servers memProbe measures.
const memProbes = 3

// memProbe fills a fresh server with one key generation of the mix's adds,
// all in one key per store, so no key evicts another: the set adds' members
// in one set, the range adds' values in one series, and the kv puts (at most
// a bucket's 1024 keys) in one bucket. It returns the growth of the live
// heap after a forced collection, in MiB. Every answer must be a 200.
func memProbe(base string, mix workload.ServiceMix, res *result) (float64, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	heap := func() (float64, error) {
		resp, err := c.Get(base + "/collbench/heap")
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var b float64
		_, err = fmt.Fscan(resp.Body, &b)
		return b, err
	}
	get := func(path string) {
		resp, err := c.Get(base + path)
		ok := err == nil
		if ok {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
		res.check(ok)
	}
	h0, err := heap()
	if err != nil {
		return 0, fmt.Errorf("memory probe: %w", err)
	}
	var total int
	for _, w := range mix.Weights {
		total += w
	}
	adds := func(op workload.ServiceOp) int64 {
		return sizing.genRequests * int64(mix.Weights[op]) / int64(total)
	}
	// Request j adds j%997 + i*997 (i < cnt) offset by a block of its own,
	// so every member is distinct (the service spreads a batched add by a
	// stride of 997).
	const stride = 997
	at := func(j int64, cnt int) int64 { return j/stride*stride*int64(cnt) + j%stride }
	for j := int64(0); j < adds(workload.OpSetAdd); j++ {
		get(fmt.Sprintf("/set/add?key=mem-s&m=%d&cnt=%d", at(j, sizing.addBurst), sizing.addBurst))
	}
	for j := int64(0); j < adds(workload.OpRangeAdd); j++ {
		get(fmt.Sprintf("/range/add?series=mem-r&t=%d&cnt=%d", at(j, sizing.rAddBurst), sizing.rAddBurst))
	}
	for j := int64(0); j < min(adds(workload.OpKVPut), 1024); j++ {
		get(fmt.Sprintf("/kv/put?k=%d&v=%d", int64(1)<<41+j, j))
	}
	h1, err := heap()
	if err != nil {
		return 0, fmt.Errorf("memory probe: %w", err)
	}
	return (h1 - h0) / (1 << 20), nil
}

// detail reports the raw times behind the ratios (service and collecho),
// the tails, memory under load, the generator's CPU, each op's median
// latency and the servers' collection churn.
func (m *turnsRun) detail() []row {
	all, d := served(m.turns)
	echoAll, echoDur := served(m.echoes)
	var p90, p99, heap, hwm []float64
	minBeyond := -1
	for _, t := range m.turns {
		lat := latMs(t.samples)
		p90, p99 = append(p90, stats.Percentile(lat, 90)), append(p99, stats.Percentile(lat, 99))
		if beyond := len(lat) / 100; minBeyond < 0 || beyond < minBeyond {
			minBeyond = beyond
		}
	}
	var created, evicted float64
	for _, sv := range m.servers {
		heap = append(heap, sv.after.LiveHeapMB...)
		hwm = append(hwm, sv.peakMB)
		created += sumValues(sv.st1.Created) - sumValues(sv.st0.Created)
		evicted += sumValues(sv.st1.Evicted) - sumValues(sv.st0.Evicted)
	}
	tail := medianRow("latency_ms.p99", "ms", p99)
	tail.Note = fmt.Sprintf("median over turns of the turn p99; the smallest turn has %d samples beyond it", minBeyond)
	lat := latMs(all)
	out := []row{
		scalarRow("throughput", "1/s", float64(len(all))/d.Seconds(), len(all)),
		medianRow("latency_ms", "ms", lat),
		scalarRow("reference.throughput", "1/s", float64(len(echoAll))/echoDur.Seconds(), len(echoAll)),
		medianRow("reference.latency_ms", "ms", latMs(echoAll)),
		medianRow("latency_ms.p90", "ms", p90),
		tail,
		scalarRow("latency_ms.p999", "ms", stats.Percentile(lat, 99.9), len(lat)),
		medianRow("service.live_heap_mb", "MB", heap),
		medianRow("service.peak_rss_mb", "MB", hwm),
		scalarRow("proc.loadgen_cpu_cores", "cores", m.loadCPU, len(m.turns)),
		scalarRow("service.created_per_s", "1/s", created/d.Seconds(), len(m.turns)),
		scalarRow("service.evicted_per_s", "1/s", evicted/d.Seconds(), len(m.turns)),
	}
	for op := workload.ServiceOp(0); op < workload.NumServiceOps; op++ {
		var ss []sample
		for _, s := range all {
			if s.op == op {
				ss = append(ss, s)
			}
		}
		if len(ss) > 0 {
			out = append(out, medianRow("latency_ms."+op.String(), "ms", latMs(ss)))
		}
	}
	return out
}

// tracedService is the traced run of a service workload: one server, a
// warm-up, a closed loop whose odd seconds are traced, then the open loop,
// the probes and the oracle check.
func tracedService(o runOpts, mix workload.ServiceMix, res *result) (err error) {
	srv, err := startServer("serve")
	if err != nil {
		return err
	}
	defer func() {
		if serr := srv.stop(); serr != nil && err == nil {
			err = fmt.Errorf("stopping server child: %w", serr)
		}
	}()
	g := newLoadgen(srv.base, mix, o.seed)
	defer g.close()
	warmUp(o, []*loadgen{g}, res)
	_, openDur := serviceWarmup(o)

	g.tr = newTracer(0)
	root := g.tr.begin(0, 0, "bench", "workload "+o.workload)
	g.phase = g.tr.begin(root.ID, root.Trace, "bench", "phase closed")
	traced := func(at time.Duration) bool { return int(at/time.Second)%2 == 1 }
	var m closedRun
	if m.before, m.m0, m.st0, err = scrapeServer(srv.base); err != nil {
		return err
	}
	per, _ := g.closed(o.seconds, traced)
	if m.after, m.m1, m.st1, err = scrapeServer(srv.base); err != nil {
		return err
	}
	tally(res, per)
	m.wins = windows(per, o.seconds)
	g.tr.end(g.phase)
	rows, detail, err := tracedServiceRows(o, res, g, root, m, openDur)
	if err != nil {
		return err
	}
	if res.Metrics, err = ordered(perLayer, rows); err != nil {
		return err
	}
	secs := float64(m.after.Proc.At-m.before.Proc.At) / 1e9
	res.Detail = append(detail,
		scalarRow("service.created_per_s", "1/s", (sumValues(m.st1.Created)-sumValues(m.st0.Created))/secs, len(m.wins)),
		scalarRow("service.evicted_per_s", "1/s", (sumValues(m.st1.Evicted)-sumValues(m.st0.Evicted))/secs, len(m.wins)))
	res.Variants = m.st1.Variants
	oracleCheck(srv.base, o.seed, res)
	return nil
}

// closedRun is what the traced run's closed loop measured, with the
// server's state scraped before and after it.
type closedRun struct {
	before, after serverSnapshot
	m0, m1        map[string]float64
	st0, st1      serviceStats
	wins          [][]sample
}

// scrapeServer reads the server child's snapshot, /metrics and /stats.
func scrapeServer(base string) (snap serverSnapshot, fams map[string]float64, st serviceStats, err error) {
	if err = getJSON(base+"/collbench/snapshot", &snap); err != nil {
		return
	}
	if fams, err = metricsScrape(base); err != nil {
		return
	}
	err = getJSON(base+"/stats", &st)
	return
}

// windowTail returns the median over windows of each window's p-th
// percentile latency.
func windowTail(name string, wins [][]sample, p float64) row {
	var xs []float64
	minBeyond := -1
	for _, w := range wins {
		xs = append(xs, stats.Percentile(latMs(w), p))
		if beyond := int(float64(len(w)) * (100 - p) / 100); minBeyond < 0 || beyond < minBeyond {
			minBeyond = beyond
		}
	}
	r := medianRow(name, "ms", xs)
	r.Note = fmt.Sprintf("median over one-second windows of the window p%g; the smallest window has %d samples beyond it", p, minBeyond)
	return r
}

// tracedServiceRows derives the per-layer rows of a traced service run and
// its detail rows, then runs the open loop and the probes.
func tracedServiceRows(o runOpts, res *result, g *loadgen, root span, m closedRun, openDur time.Duration) ([]row, []row, error) {
	tr := g.tr
	before, after, m0, m1, wins := m.before, m.after, m.m0, m.m1, m.wins
	wall := float64(after.Proc.At-before.Proc.At) / 1e9
	diff := func(name string) float64 { return m1["collectionswitch_"+name] - m0["collectionswitch_"+name] }
	per := func(name string) float64 { return diff(name) / wall }
	var busy float64
	for _, us := range after.PassUs {
		busy += us / 1e6
	}
	rows := coreCounterRows(coreCounters{
		created: per("instances_created_total"), monitored: per("instances_monitored_total"),
		monitoredFraction: ratio(diff("instances_monitored_total"), diff("instances_created_total")),
		windows:           per("windows_closed_total"), rules: per("rule_evaluations_total"),
		transitions: per("transitions_total"), switchRatio: ratio(diff("transitions_total"), diff("rule_evaluations_total")),
		reclaims: per("weak_reclaims_total"), passes: per("analysis_rounds_total"),
		events: float64(after.Events) / wall, overhead: ratio(busy, wall),
	}, after.PassUs, len(wins))
	var proc procDelta
	proc.add(before.Proc, after.Proc)
	rows = append(rows, proc.runtimeRows(len(wins))...)

	var plainRPS, tracedRPS []float64
	var plainWins [][]sample
	for k, w := range wins {
		if k%2 == 1 {
			tracedRPS = append(tracedRPS, float64(len(w)))
		} else {
			plainRPS = append(plainRPS, float64(len(w)))
			plainWins = append(plainWins, w)
		}
	}
	tail := windowTail("tail_ms", plainWins, 99)
	tail.Note = "untraced seconds only; " + tail.Note
	rows = append(rows, tail, medianRow("runtime.live_heap_mb", "MB", after.LiveHeapMB))
	base := stats.Median(plainRPS)
	ov := scalarRow("trace.overhead_pct", "%", 100*(ratio(base, stats.Median(tracedRPS))-1), len(tracedRPS))
	ov.Note = fmt.Sprintf("base: untraced median %.6g req/s over %d seconds", base, len(plainRPS))
	rows = append(rows, ov)

	// A request's HTTP time is its client span's self time: the part the
	// server's handler span, joined by the client span ID, does not cover.
	client := tr.take()
	serverOf := make(map[uint64]span, len(after.Spans))
	for _, s := range after.Spans {
		serverOf[s.Parent] = s
	}
	self := selfTimes(append(client, after.Spans...))
	var handler, httpSelf []float64
	perOp := make(map[string][]float64)
	for _, c := range client {
		s, ok := serverOf[c.ID]
		if !ok || c.Layer != "http" {
			continue
		}
		h := float64(s.dur()) / 1e3
		handler = append(handler, h)
		httpSelf = append(httpSelf, float64(self[c.ID])/1e3)
		op := strings.TrimPrefix(c.Name, "client ")
		perOp[op] = append(perOp[op], h)
	}
	detail := []row{
		seriesRow("service.handler_us.p50", "us", handler, stats.Percentile(handler, 50)),
		seriesRow("service.handler_us.p99", "us", handler, stats.Percentile(handler, 99)),
		seriesRow("http.self_us.p50", "us", httpSelf, stats.Percentile(httpSelf, 50)),
		seriesRow("http.self_us.p99", "us", httpSelf, stats.Percentile(httpSelf, 99)),
	}
	ops := make([]string, 0, len(perOp))
	for op := range perOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		detail = append(detail, medianRow("service.handler_us."+op+".p50", "us", perOp[op]))
	}

	phase := tr.begin(root.ID, root.Trace, "bench", "phase open")
	openPer := g.open(openDur, openRate)
	tr.end(phase)
	tally(res, openPer)
	var openP99 []float64
	for _, w := range windows(openPer, openDur) {
		openP99 = append(openP99, stats.Percentile(latMs(w), 99))
	}
	var late []float64
	for _, s := range flatten(openPer) {
		late = append(late, float64(s.late)/1e6)
	}
	op99 := medianRow("open_p99_ms", "ms", openP99)
	op99.Note = fmt.Sprintf("open loop at %g req/s, timed from each request's due time", openRate)
	detail = append(detail, op99,
		seriesRow("loadgen.late_ms.p50", "ms", late, stats.Percentile(late, 50)),
		seriesRow("loadgen.late_ms.p99", "ms", late, stats.Percentile(late, 99)))

	pr, err := runProbes(o, res)
	if err != nil {
		return nil, nil, err
	}
	rows = append(rows, pr.Rows...)
	detail = append(detail, pr.Detail...)
	tr.end(root)
	spans := append(tr.take(), client...)
	if err := writeSpans(o.spansPath(), append(spans, after.Spans...)); err != nil {
		return nil, nil, err
	}
	return rows, detail, nil
}

// oracleCheck runs a quiet check on fresh keys after the load: every
// answer must match an in-benchmark oracle (a Go map per set, a Go map for
// the kv store, a sorted slice per range series). One key is checked at a
// time, so FIFO eviction (one live key per shard) cannot intervene.
func oracleCheck(base string, seed int64, res *result) {
	r := rand.New(rand.NewSource(seed))
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	get := func(path string) (string, bool) {
		resp, err := c.Get(base + path)
		if err != nil {
			return "", false
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return strings.TrimSuffix(string(body), "\n"), err == nil && resp.StatusCode == http.StatusOK
	}
	expect := func(path, want string) {
		got, ok := get(path)
		if !ok || got != want {
			fmt.Fprintf(os.Stderr, "collbench: oracle: %s answered %q, want %q\n", path, got, want)
			ok = false
		}
		res.check(ok)
	}
	const stride = 997 // the service spreads a batched add's members by this stride
	for k := 0; k < 8; k++ {
		key := fmt.Sprintf("oracle-%d-s%d", seed, k)
		set := map[int64]bool{}
		for b := 0; b < 4; b++ {
			m := r.Int63n(100000)
			added := false
			for i := int64(0); i < 8; i++ {
				if !set[m+i*stride] {
					added = true
				}
				set[m+i*stride] = true
			}
			expect(fmt.Sprintf("/set/add?key=%s&m=%d&cnt=8", key, m), boolBody(added))
		}
		for q := 0; q < 16; q++ {
			m := r.Int63n(100000 + 8*stride)
			expect(fmt.Sprintf("/set/has?key=%s&m=%d", key, m), boolBody(set[m]))
		}
	}
	kvBase := int64(1)<<40 + (seed&0xffff)<<20 // a bucket no load generation reaches
	kv := map[int64]int64{}
	for i := 0; i < 64; i++ {
		k, v := kvBase+r.Int63n(512), r.Int63()
		_, had := kv[k]
		kv[k] = v
		expect(fmt.Sprintf("/kv/put?k=%d&v=%d", k, v), boolBody(had))
	}
	for i := 0; i < 64; i++ {
		k := kvBase + r.Int63n(1024)
		want := "miss"
		if v, ok := kv[k]; ok {
			want = strconv.FormatInt(v, 10)
		}
		expect(fmt.Sprintf("/kv/get?k=%d", k), want)
	}
	for k := 0; k < 8; k++ {
		series := fmt.Sprintf("oracle-%d-r%d", seed, k)
		var vals []int64
		seen := map[int64]bool{}
		for b := 0; b < 4; b++ {
			t := r.Int63n(40000)
			added := false
			for i := int64(0); i < 16; i++ {
				if v := t + i*stride; !seen[v] {
					seen[v], added = true, true
					vals = append(vals, v)
				}
			}
			expect(fmt.Sprintf("/range/add?series=%s&t=%d&cnt=16", series, t), boolBody(added))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for q := 0; q < 8; q++ {
			from := r.Int63n(40000)
			to := from + 1000 + r.Int63n(8000)
			lo := sort.Search(len(vals), func(i int) bool { return vals[i] >= from })
			var n, sum int64
			for _, v := range vals[lo:] {
				if v > to {
					break
				}
				n++
				sum += v
			}
			got, ok := get(fmt.Sprintf("/range/scan?series=%s&from=%d&to=%d", series, from, to))
			var gn, gsum int64
			var sorted bool
			_, err := fmt.Sscanf(got, "%d %d sorted=%t", &gn, &gsum, &sorted)
			if !ok || err != nil || gn != n || gsum != sum {
				fmt.Fprintf(os.Stderr, "collbench: oracle: scan %s [%d,%d] answered %q, want count %d sum %d\n", series, from, to, got, n, sum)
				ok = false
			}
			res.check(ok)
		}
	}
}

func boolBody(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
