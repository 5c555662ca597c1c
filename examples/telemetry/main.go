// telemetry: an end-to-end tour of the observability layer (package obs)
// on a telemetry-service workload that also exercises the paper's Section 7
// future work (sorted collections, the energy cost dimension).
//
// A telemetry service stores per-sensor readings in sorted maps and builds
// per-query alert sets through a CollectionSwitch context running the
// Renergy rule. The engine is wired with the full observability stack:
//
//   - a JSONL sink exporting every framework event to a trace file, which
//     the program re-reads and decodes afterwards (the -trace machinery of
//     cmd/experiments, in miniature);
//   - a flight recorder keeping the most recent events in memory, the
//     shape an always-on service exposes from its /events debug endpoint;
//   - a shared metrics registry, rendered as a Prometheus-text summary and
//     published through expvar;
//   - the live introspection server of internal/diag, served on a loopback
//     port and queried over HTTP for the alert-set context's decision
//     records — the answer to "why is this context on that variant?".
//
// Run with: go run ./examples/telemetry
package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obs"
)

const (
	sensors  = 32
	readings = 5000
	queries  = 3000
)

func main() {
	r := rand.New(rand.NewSource(17))

	// Each sensor's time series lives in a sorted map: timestamp -> value.
	series := make([]collections.SortedMap[int, int], sensors)
	for i := range series {
		if i%2 == 0 {
			series[i] = collections.NewAVLTreeMap[int, int]()
		} else {
			series[i] = collections.NewSkipListMap[int, int]()
		}
	}
	for t := 0; t < readings; t++ {
		for s := range series {
			if r.Intn(3) == 0 {
				series[s].Put(t, r.Intn(1000))
			}
		}
	}

	// Observability wiring: JSONL trace file + flight recorder + metrics.
	tracePath := filepath.Join(os.TempDir(), "telemetry-trace.jsonl")
	f, err := os.Create(tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "creating trace file:", err)
		os.Exit(1)
	}
	jsonl := obs.NewJSONLSink(f)
	recorder := obs.NewFlightRecorder(32) // also feeds the diag /events endpoint
	metrics := obs.NewRegistry()
	metrics.PublishExpvar("collectionswitch") // curl /debug/vars in a real service

	engine := core.NewEngineManual(core.Config{
		Rule: core.Renergy(),
		// AnalysisSpans adds one ContextAnalyzed event per context per
		// pass — per-context analysis latency, the debugging view of the
		// Figure 7 overhead argument.
		AnalysisSpans: true,
		Name:          "telemetry",
		Sink:          obs.Multi(jsonl, recorder),
		Metrics:       metrics,
	})
	server := diag.New(metrics, recorder)
	server.Attach(engine)
	ctx := core.NewSetContext[int](engine, core.WithName("telemetry/AlertSet"))

	// The per-query "sensors over threshold" sets flow through the
	// adaptive allocation context under the energy rule.
	alerts := 0
	for q := 0; q < queries; q++ {
		from := r.Intn(readings - 100)
		to := from + 100
		threshold := 600 + r.Intn(300)
		hot := ctx.NewSet()
		for s := range series {
			series[s].Range(from, to, func(_, v int) bool {
				if v > threshold {
					hot.Add(s)
					return false // one alert per sensor is enough
				}
				return true
			})
		}
		for p := 0; p < 16; p++ {
			if hot.Contains(r.Intn(sensors)) {
				alerts++
			}
		}
		if (q+1)%(queries/20) == 0 {
			runtime.GC()
			engine.AnalyzeNow()
		}
	}
	engine.Close() // emits EngineClosed into every sink

	fmt.Printf("alerts observed: %d\n", alerts)
	fmt.Printf("alert-set variant under %s: %s\n",
		engine.Config().Rule.Name, ctx.CurrentVariant())

	// 1. The JSONL trace round-trips through obs.Decode: everything the
	// engine did is reconstructible offline, transition ratios included.
	if err := jsonl.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "flushing trace:", err)
	}
	f.Close()
	f, err = os.Open(tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reopening trace:", err)
		os.Exit(1)
	}
	events, err := obs.ReadAll(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "decoding trace:", err)
		os.Exit(1)
	}
	fmt.Printf("\ntrace: %d events in %s\n", len(events), tracePath)
	spans := 0
	var spanNs int64
	for _, ev := range events {
		switch t := ev.(type) {
		case obs.Transition:
			fmt.Printf("  transition (round %d): %s -> %s (energy ratio %.2f)\n",
				t.Round, t.From, t.To, t.Ratios["energy-nj"])
		case obs.ContextAnalyzed:
			spans++
			spanNs += t.DurationNs
		}
	}
	if spans > 0 {
		fmt.Printf("  analysis spans: %d ContextAnalyzed events, %dns mean per-context analyze\n",
			spans, spanNs/int64(spans))
	}

	// 2. The flight recorder holds the most recent events — what a debug
	// endpoint shows without retaining the full history.
	recent := recorder.Snapshot()
	recent = recent[max(0, len(recent)-8):]
	fmt.Printf("\nflight recorder: last %d of %d events\n", len(recent), recorder.Total())
	for _, te := range recent {
		fmt.Printf("  [%s] %s\n", te.Event.EventKind(), obs.Line(te.Event))
	}

	// 3. The metrics registry summarizes the run; the monitored fraction is
	// the paper's overhead argument in one number.
	fmt.Printf("\nmonitored fraction: %.3f (%d of %d instances)\n",
		metrics.MonitoredFraction(),
		metrics.InstancesMonitored.Load(), metrics.InstancesCreated.Load())
	fmt.Println("\nPrometheus exposition:")
	if _, err := metrics.WriteTo(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "writing metrics:", err)
	}

	// 4. The live introspection server answers the same questions over
	// HTTP while the service runs — here it is queried from the process
	// itself, but any curl works (a closed engine stays inspectable).
	srv, addr, _, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "starting introspection server:", err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("\nintrospection server on http://%s\n", addr)
	for _, path := range []string{"/sites", "/sites/telemetry/AlertSet/explain", "/events"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "GET", path, ":", err)
			os.Exit(1)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		const keep = 400
		out := string(body)
		if len(out) > keep {
			out = out[:keep] + "…\n"
		}
		fmt.Printf("\nGET %s (%s)\n%s", path, resp.Status, out)
	}
}
