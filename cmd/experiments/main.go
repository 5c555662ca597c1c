// Command experiments regenerates the tables and figures of the paper's
// evaluation section (Section 5). Each experiment prints the same rows or
// series the paper reports; absolute numbers are machine-specific, the
// shapes are the reproduction target.
//
// Usage:
//
//	experiments -exp all            # everything, full scale (slow)
//	experiments -exp fig5 -quick    # one experiment at reduced scale
//	experiments -list               # list experiment ids
//
// Experiments: table1 (alias fig3), table2, table4, fig5, fig6, fig7,
// table5, table6, overhead, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/diag"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/tuner"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list)")
	quick := flag.Bool("quick", false, "run at reduced scale")
	list := flag.Bool("list", false, "list experiment ids and exit")
	modelsPath := flag.String("models", "", "optional perfmodel JSON built by cmd/perfmodel")
	storeDir := flag.String("store", "", "warm-start store directory: load persisted site decisions/models before the run and save snapshots after (see internal/tuner)")
	tracePath := flag.String("trace", "", "write structured framework events (JSONL) to this file")
	metrics := flag.Bool("metrics", false, "print a metrics summary after each experiment")
	confidence := flag.Float64("confidence", 0, "confidence level in (0,1) for interval-gated switching (Config.ConfidenceLevel); 0 keeps point-estimate switching — switches withheld by overlapping intervals surface as switch_suppressed events and the switches_suppressed_ci_total counter")
	httpAddr := flag.String("http", "", "serve the live introspection endpoints (/metrics, /sites, /sites/{name}/explain, /events, /debug/vars) on this address, e.g. :6060 (see internal/diag)")
	linger := flag.Duration("linger", 0, "with -http: keep serving this long after the experiments finish (so the endpoints can be inspected), e.g. 30s")
	flag.Parse()

	if *list {
		fmt.Println("table1 | fig3   transition-threshold analysis (Figure 3, Table 1)")
		fmt.Println("table2          variant inventory (Table 2)")
		fmt.Println("table4          selection rules (Table 4)")
		fmt.Println("fig5            single-phase micro-benchmarks (Figure 5 a-e)")
		fmt.Println("fig6            multi-phase scenario (Figure 6)")
		fmt.Println("fig7            analysis overhead by window size (Figure 7)")
		fmt.Println("table5          DaCapo-substitute applications (Table 5)")
		fmt.Println("table6          most common transitions (Table 6)")
		fmt.Println("overhead        framework overhead, impossible rule (Section 5.3)")
		fmt.Println("ablation        design-decision ablations (DESIGN.md section 5)")
		fmt.Println("all             everything above")
		return
	}

	sc := experiments.FullScale()
	if *quick {
		sc = experiments.QuickScale()
	}

	// Observability wiring: engines of the engine-driven experiments share
	// one metrics registry, and -trace exports their event streams as
	// JSONL (the Table 6 rows are exactly reconstructible from that file
	// via experiments.Table6FromEvents / obs.ReadAll). A -models file
	// replaces the analytic defaults on every experiment engine.
	o := apps.Obs{Metrics: obs.NewRegistry(), Confidence: *confidence}

	// Live introspection (-http): every experiment engine attaches to one
	// diag server, a flight recorder captures the most recent framework
	// events (also dumped to stderr on SIGQUIT), and a background
	// runtime/metrics sampler keeps the GC and live-heap gauges current.
	var lingerFn func()
	if *httpAddr != "" {
		recorder := obs.NewFlightRecorder(1024)
		o.Sink = recorder
		server := diag.New(o.Metrics, recorder)
		o.EngineHook = server.Attach
		stopSig := diag.NotifySIGQUIT(recorder)
		defer stopSig()
		sampler := obs.StartRuntimeSampler(o.Metrics, time.Second)
		defer sampler.Close()
		httpSrv, addr, serveErr, err := server.ListenAndServe(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starting introspection server: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			httpSrv.Close()
			// The accept loop reports exactly once after Close; a non-nil
			// value here means serving died mid-run, not at shutdown.
			if err := <-serveErr; err != nil {
				fmt.Fprintf(os.Stderr, "introspection server failed: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "introspection server on http://%s (try /metrics, /sites, /events)\n", addr)
		if *linger > 0 {
			lingerFn = func() {
				fmt.Fprintf(os.Stderr, "experiments done; serving http://%s for %s more\n", addr, *linger)
				time.Sleep(*linger)
			}
		}
	}

	var traceSink *obs.JSONLSink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating trace file: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := traceSink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "flushing trace: %v\n", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "trace written to %s\n", *tracePath)
		}()
		traceSink = obs.NewJSONLSink(f)
		// Multi keeps the flight recorder (if -http is on) fed alongside
		// the trace file; with no recorder it degenerates to the sink.
		o.Sink = obs.Multi(traceSink, o.Sink)
	}

	// Warm-start store: decisions and refined models persisted by an
	// earlier run (or by the tuner) seed every experiment engine; after
	// the run, the latest per-site snapshots are saved back.
	if *storeDir != "" {
		store := tuner.Open(*storeDir, o.Sink, o.Metrics)
		o.WarmStart = store
		o.Snapshots = store.RecordSites
		defer func() {
			if err := store.Save(); err != nil {
				fmt.Fprintf(os.Stderr, "saving warm-start store: %v\n", err)
			}
		}()
		if *modelsPath == "" {
			if m := store.Models(); m != nil {
				o.Models = m
			}
		}
	}

	if *modelsPath != "" {
		m, err := perfmodel.LoadFile(*modelsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading models: %v\n", err)
			os.Exit(1)
		}
		// Validate the loaded curves against the live variant catalog: a
		// model file built against a different build may carry curves for
		// variants this binary does not register. Each is a model gap —
		// warn once per variant and count it, then proceed; the engine
		// skips candidates with missing curves anyway.
		for _, v := range perfmodel.UnknownVariants(m) {
			fmt.Fprintf(os.Stderr, "warning: models file %s has curves for unknown variant %q (not in this build's catalog)\n", *modelsPath, v)
			o.Metrics.ModelGaps.Add(1)
		}
		o.Models = m
	}

	w := os.Stdout
	run := func(id string) {
		switch id {
		case "table1", "fig3":
			experiments.PrintThresholds(w, experiments.RunThresholdAnalysis(sc.ThresholdTrials))
		case "table2":
			experiments.PrintTable2(w)
		case "table4":
			experiments.PrintTable4(w)
		case "fig5":
			experiments.PrintFig5(w, experiments.RunFig5(sc, o))
		case "fig6":
			experiments.PrintFig6(w, experiments.RunFig6(sc, o))
		case "fig7":
			experiments.PrintFig7(w, experiments.RunFig7(o.Models))
		case "table5", "table6":
			rows := experiments.RunTable5(sc, o)
			experiments.PrintTable5(w, rows)
			experiments.PrintTable6(w, experiments.Table6From(rows))
		case "overhead":
			experiments.PrintOverhead(w, experiments.RunOverhead(sc, o))
		case "ablation":
			experiments.PrintAblation(w, experiments.RunAblation(sc))
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		if *metrics {
			fmt.Fprintf(w, "\n== metrics after %s ==\n", id)
			if _, err := o.Metrics.WriteTo(w); err != nil {
				fmt.Fprintf(os.Stderr, "writing metrics: %v\n", err)
			}
		}
	}

	if *exp == "all" {
		for _, id := range []string{"table2", "table4", "fig3", "fig7", "fig5", "fig6", "table5", "overhead"} {
			run(id)
		}
	} else {
		run(*exp)
	}
	if lingerFn != nil {
		lingerFn()
	}
}
