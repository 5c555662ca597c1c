package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/promtext"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// testConfig returns a small manual-engine config the tests drive by hand:
// tiny windows, no cooldown, aggressive eviction, so a few hundred requests
// are enough to close monitoring windows.
func testConfig(t *testing.T) Config {
	return Config{
		Engine: core.Config{
			Name:            "collserve-test",
			WindowSize:      12,
			FinishedRatio:   0.6,
			Rule:            core.Rtime(),
			CooldownWindows: -1,
		},
		Manual:          true,
		Shards:          2,
		MaxKeysPerShard: 64,
	}
}

func mustGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func get200(t *testing.T, url string) string {
	t.Helper()
	code, body := mustGet(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d:\n%s", url, code, body)
	}
	return body
}

// TestServiceEndToEnd is the ISSUE 9 e2e satellite: start the service on an
// ephemeral port, drive a scan-heavy workload over real HTTP until the
// engine performs at least one live variant switch, assert the transition is
// observable on every surface (registry, flight recorder — the repo's
// "transition" event is the switch_performed of the issue text — /metrics
// via the strict promtext parser, /sites, /stats), then run the graceful
// shutdown lifecycle and check the warm-start store was saved.
func TestServiceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.StoreDir = dir
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := svc.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	base := "http://" + svc.Addr()

	// Basic correctness through the router before the churn: one series
	// with a known population, one exact scan answer.
	get200(t, base+"/range/add?series=known&t=10&cnt=5") // 10,1007,2004,3001,3998
	if body := get200(t, base+"/range/scan?series=known&from=0&to=2500"); !strings.HasPrefix(body, "3 3021 ") {
		t.Fatalf("scan(known, 0..2500) = %q, want count=3 sum=3021", body)
	}
	if body := get200(t, base+"/set/add?key=k1&m=7"); strings.TrimSpace(body) != "1" {
		t.Fatalf("set/add = %q", body)
	}
	if body := get200(t, base+"/set/has?key=k1&m=7"); strings.TrimSpace(body) != "1" {
		t.Fatalf("set/has = %q", body)
	}
	get200(t, base+"/kv/put?k=42&v=99")
	if body := get200(t, base+"/kv/get?k=42"); strings.TrimSpace(body) != "99" {
		t.Fatalf("kv/get = %q", body)
	}
	if code, _ := mustGet(t, base+"/kv/get?k=404404"); code != http.StatusOK {
		t.Fatalf("kv miss status = %d", code)
	}
	if code, _ := mustGet(t, base+"/set/add?key=k1&m=notanint"); code != http.StatusBadRequest {
		t.Fatalf("bad param status = %d, want 400", code)
	}

	// Scan-heavy churn: each round creates window+2 fresh series, bulk
	// populates them, scans them hard, then drops them so the finished
	// ratio gate can close the window after GC.
	start := svc.Registry().TransitionsTotal()
	deadline := time.Now().Add(60 * time.Second)
	round := 0
	for svc.Registry().TransitionsTotal() == start {
		if time.Now().After(deadline) {
			t.Fatalf("no variant transition after %d rounds", round)
		}
		round++
		for i := 0; i < 14; i++ {
			series := fmt.Sprintf("g%d-%d", round, i)
			for b := 0; b < 2; b++ {
				get200(t, fmt.Sprintf("%s/range/add?series=%s&t=%d&cnt=64", base, series, b*70000))
			}
			for sc := 0; sc < 8; sc++ {
				get200(t, fmt.Sprintf("%s/range/scan?series=%s&from=%d&to=%d", base, series, sc*1000, sc*1000+5000))
			}
			get200(t, base+"/range/drop?series="+series)
		}
		runtime.GC()
		svc.Engine().AnalyzeNow()
	}

	// The switch must be visible end to end.
	if v := svc.rangeCtx.CurrentVariant(); v == collections.HashSetID {
		t.Errorf("range context still on %s after a transition", v)
	}
	foundTransition := false
	for _, te := range svc.Recorder().Snapshot() {
		if te.Event.EventKind() == obs.KindTransition {
			foundTransition = true
			break
		}
	}
	if !foundTransition {
		t.Error("flight recorder has no transition (switch_performed) event")
	}

	// /metrics must round-trip the strict exposition parser and carry both
	// the framework transition counter and the service's external metrics.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	fams, err := promtext.Parse(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if err := promtext.Validate(fams); err != nil {
		t.Fatalf("/metrics does not validate: %v", err)
	}
	byName := map[string]promtext.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	var transTotal float64
	for _, s := range byName["collectionswitch_transitions_total"].Samples {
		transTotal += s.Value
	}
	if transTotal < 1 {
		t.Errorf("transitions_total = %v, want >= 1", transTotal)
	}
	reqs := byName["collserve_requests_total"]
	if len(reqs.Samples) == 0 || reqs.Samples[0].Value <= 0 {
		t.Errorf("external metric collserve_requests_total missing or zero: %+v", reqs)
	}
	if _, ok := byName["collserve_range_scan_total"]; !ok {
		t.Error("per-op external metric collserve_range_scan_total missing")
	}

	// Introspection surfaces on the same port.
	sites := get200(t, base+"/sites")
	for _, name := range []string{"service/sets", "service/kv", "service/range"} {
		if !strings.Contains(sites, name) {
			t.Errorf("/sites missing %s:\n%.400s", name, sites)
		}
	}
	explain := get200(t, base+"/sites/service/range/explain")
	if !strings.Contains(explain, "records") || !strings.Contains(explain, "switched") {
		t.Errorf("/sites/service/range/explain lacks a switch record:\n%.600s", explain)
	}
	stats := get200(t, base+"/stats")
	if !strings.Contains(stats, `"transitions"`) || !strings.Contains(stats, "service/range") {
		t.Errorf("/stats payload unexpected:\n%.400s", stats)
	}

	// Graceful shutdown: drain, final analysis, store save, engine close.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !svc.Engine().Closed() {
		t.Error("engine not closed after Shutdown")
	}
	if _, err := os.Stat(filepath.Join(dir, tuner.StoreFileName)); err != nil {
		t.Errorf("warm-start store not saved: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
}

// TestServiceConcurrentMixedOps hammers every endpoint from several
// goroutines while the engine analyzes concurrently — the race-mode fence
// around the sharded store locking.
func TestServiceConcurrentMixedOps(t *testing.T) {
	svc, err := New(testConfig(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := svc.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	base := "http://" + svc.Addr()

	stop := make(chan struct{})
	var analyzeWG sync.WaitGroup
	analyzeWG.Add(1)
	go func() {
		defer analyzeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				svc.Engine().AnalyzeNow()
			}
		}
	}()

	const workers, opsEach = 6, 120
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mix, _ := workload.MixByName("mixed")
			_ = mix
			for i := 0; i < opsEach; i++ {
				var url string
				switch i % 6 {
				case 0:
					url = fmt.Sprintf("%s/set/add?key=w%d-%d&m=%d&cnt=4", base, w, i%9, i)
				case 1:
					url = fmt.Sprintf("%s/set/has?key=w%d-%d&m=%d", base, w, i%9, i)
				case 2:
					url = fmt.Sprintf("%s/kv/put?k=%d&v=%d", base, w*10000+i, i)
				case 3:
					url = fmt.Sprintf("%s/kv/get?k=%d", base, w*10000+i)
				case 4:
					url = fmt.Sprintf("%s/range/add?series=w%d-%d&t=%d&cnt=4", base, w, i%9, i*13)
				case 5:
					url = fmt.Sprintf("%s/range/scan?series=w%d-%d&from=0&to=5000&cnt=2", base, w, i%9)
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d", url, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	analyzeWG.Wait()

	if got := svc.RequestsTotal(); got != workers*opsEach {
		t.Errorf("RequestsTotal = %d, want %d", got, workers*opsEach)
	}
	// The workers' dial race can leave a connection that never sent a
	// request; Shutdown would wait until it is 5 s old. Close it first.
	http.DefaultClient.CloseIdleConnections()
	// Shutdown consumes the serve-error channel itself; a clean stop means
	// a nil return here.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestFixedModePinsVariantAndNeverSwitches: a fixed baseline must hold its
// single-candidate contexts no matter the workload.
func TestFixedModePinsVariantAndNeverSwitches(t *testing.T) {
	cfg := testConfig(t)
	cfg.Fixed = "sortedarray"
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := svc.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	base := "http://" + svc.Addr()
	for round := 0; round < 3; round++ {
		for i := 0; i < 14; i++ {
			series := fmt.Sprintf("f%d-%d", round, i)
			get200(t, fmt.Sprintf("%s/range/add?series=%s&t=0&cnt=64", base, series))
			get200(t, base+"/range/drop?series="+series)
		}
		runtime.GC()
		svc.Engine().AnalyzeNow()
	}
	if v := svc.rangeCtx.CurrentVariant(); v != collections.SortedArraySetID {
		t.Errorf("fixed range variant drifted to %s", v)
	}
	if n := svc.Registry().TransitionsTotal(); n != 0 {
		t.Errorf("fixed mode performed %d transitions", n)
	}
	// A fixed sorted variant answers scans via Range (sorted=true) once
	// instances are unmonitored; either way the result must be correct.
	get200(t, base+"/range/add?series=fx&t=0&cnt=3")
	if body := get200(t, base+"/range/scan?series=fx&from=0&to=3000"); !strings.HasPrefix(body, "3 2991 ") {
		t.Errorf("fixed scan = %q", body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestStatsUptimeCountsFromStart: /stats reports how long this service has
// been serving, not how long the process has run.
func TestStatsUptimeCountsFromStart(t *testing.T) {
	svc, err := New(testConfig(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Time that passes before Start is not uptime.
	time.Sleep(100 * time.Millisecond)
	before := time.Now()
	if err := svc.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	body := get200(t, "http://"+svc.Addr()+"/stats")
	serving := time.Since(before)
	var snap statsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/stats: %v\n%s", err, body)
	}
	up, err := time.ParseDuration(snap.Uptime)
	if err != nil {
		t.Fatalf("uptime %q: %v", snap.Uptime, err)
	}
	// Uptime is rounded to the millisecond.
	if up > serving+time.Millisecond {
		t.Errorf("uptime %v, but the service has served for %v", up, serving)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestUnknownFixedModeRejected guards the flag surface.
func TestUnknownFixedModeRejected(t *testing.T) {
	cfg := testConfig(t)
	cfg.Fixed = "btree"
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted unknown fixed mode")
	}
}

// TestStoreEviction pins the churn mechanism selection depends on: past the
// per-shard cap, the oldest keys die.
func TestStoreEviction(t *testing.T) {
	ks := newKeyedShards[string, int](1, 4)
	for i := 0; i < 10; i++ {
		ks.write(fmt.Sprintf("k%d", i), func() int { return i }, nil)
	}
	if got := ks.keys(); got != 4 {
		t.Errorf("live keys = %d, want 4", got)
	}
	if ev := ks.evicted.Load(); ev != 6 {
		t.Errorf("evicted = %d, want 6", ev)
	}
	if ks.read("k0", nil) {
		t.Error("oldest key survived eviction")
	}
	if !ks.read("k9", nil) {
		t.Error("newest key evicted")
	}
}
