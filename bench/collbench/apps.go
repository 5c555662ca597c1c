package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// appInputs is the number of program inputs one apps run rotates through.
// Each input is a different program seed; a run measures every input
// equally often, so its medians average over inputs and two bench seeds
// differ less than two single inputs do (peak heap is bimodal across
// single inputs).
const appInputs = 8

// appWarmup is the number of unmeasured passes before the measured ones.
const appWarmup = 3

// appSeed derives the program seed of input j of a run with bench seed seed.
func appSeed(seed int64, j int) int64 { return seed*100 + int64(j) }

// checksums is the committed reference output: each program's Result.Sink
// per input, recorded in ModeOriginal, where no framework code runs.
type checksums struct {
	Scale  float64          `json:"scale"`
	Seed   int64            `json:"seed"`
	Inputs []int64          `json:"inputs"`
	Sinks  map[string][]int `json:"sinks"`
}

//go:embed testdata/apps_checksums.json
var checksumsJSON []byte

// appsShape returns the program scale and input count of a run.
func appsShape(quick bool) (scale float64, inputs int) {
	if quick {
		return 0.1, 2
	}
	return 1.0, appInputs
}

// recordChecksums computes the reference outputs for seed at full scale.
func recordChecksums(seed int64) checksums {
	scale, inputs := appsShape(false)
	c := checksums{Scale: scale, Seed: seed, Sinks: map[string][]int{}}
	for j := 0; j < inputs; j++ {
		c.Inputs = append(c.Inputs, appSeed(seed, j))
	}
	for _, p := range apps.All(scale) {
		for _, s := range c.Inputs {
			c.Sinks[p.Name()] = append(c.Sinks[p.Name()], apps.Run(p, apps.ModeOriginal, core.Rtime(), s).Sink)
		}
	}
	return c
}

// appPass is one measured pass: every program once, on one input.
type appPass struct {
	elapsed []float64 // seconds per program (Result.Elapsed)
	wall    []float64 // seconds per program around the apps.Run call
	refSec  []float64 // seconds of the reference task run after each program
	peak    uint64    // Σ Result.PeakHeapBytes
	proc    procDelta // the programs' runs only
}

func (p appPass) suite() float64 {
	var s float64
	for _, e := range p.elapsed {
		s += e
	}
	return s
}

// suites returns each pass's suite time in seconds.
func suites(passes []appPass) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = p.suite()
	}
	return out
}

// progMs returns program i's run time in each pass, in milliseconds.
func progMs(passes []appPass, i int) []float64 {
	out := make([]float64, len(passes))
	for k, p := range passes {
		out[k] = p.elapsed[i] * 1e3
	}
	return out
}

// appsRun holds what every apps workload shares: the programs, their
// reference outputs, the host-speed reference and the result being filled.
type appsRun struct {
	o      runOpts
	mode   apps.Mode
	progs  []apps.App
	inputs int
	refs   [][]int // [program][input]
	task   *refTask
	res    *result
}

// newAppsRun computes the reference outputs of this run's inputs in
// ModeOriginal and, for the committed seed, checks them against the
// committed checksums. These runs also warm the process up.
func newAppsRun(o runOpts, mode apps.Mode, res *result) (*appsRun, error) {
	scale, inputs := appsShape(o.quick)
	task, err := newRefTask(o.seed)
	if err != nil {
		return nil, err
	}
	a := &appsRun{o: o, mode: mode, progs: apps.All(scale), inputs: inputs, task: task, res: res}
	var want checksums
	if err := json.Unmarshal(checksumsJSON, &want); err != nil {
		return nil, fmt.Errorf("committed checksums: %w", err)
	}
	committed := want.Seed == o.seed && want.Scale == scale
	for i, p := range a.progs {
		a.refs = append(a.refs, nil)
		for j := 0; j < inputs; j++ {
			sink := apps.Run(p, apps.ModeOriginal, core.Rtime(), appSeed(o.seed, j)).Sink
			a.refs[i] = append(a.refs[i], sink)
			if committed {
				ok := j < len(want.Sinks[p.Name()]) && want.Sinks[p.Name()][j] == sink
				if !ok {
					fmt.Fprintf(os.Stderr, "collbench: %s input %d: output %d, committed checksum differs\n", p.Name(), j, sink)
				}
				res.check(ok)
			}
		}
	}
	return a, nil
}

// pass runs every program once on input j through run, each followed by
// the reference task, and checks each output against the reference output.
func (a *appsRun) pass(j int, run func(apps.App, int64) apps.Result) appPass {
	p := appPass{}
	for i, prog := range a.progs {
		before := readProc()
		t0 := time.Now()
		r := run(prog, appSeed(a.o.seed, j))
		wall := time.Since(t0)
		p.proc.add(before, readProc())
		p.elapsed = append(p.elapsed, r.Elapsed.Seconds())
		p.wall = append(p.wall, wall.Seconds())
		p.refSec = append(p.refSec, a.task.run())
		p.peak += r.PeakHeapBytes
		ok := r.Sink == a.refs[i][j]
		if !ok {
			fmt.Fprintf(os.Stderr, "collbench: %s input %d mode %s: output %d, reference %d\n", prog.Name(), j, a.mode, r.Sink, a.refs[i][j])
		}
		a.res.check(ok)
	}
	return p
}

// plain runs a program the way a user of the mode would, without tracing.
func (a *appsRun) plain(p apps.App, seed int64) apps.Result {
	return apps.Run(p, a.mode, core.Rtime(), seed)
}

// runApps measures an apps workload: adaptive in ModeFullAdap under Rtime,
// otherwise ModeOriginal with the declared default variants and no engine.
// The programs are single-threaded, so the process runs at GOMAXPROCS=1.
func runApps(o runOpts, adaptive bool, res *result) error {
	runtime.GOMAXPROCS(1)
	mode := apps.ModeOriginal
	if adaptive {
		mode = apps.ModeFullAdap
	}
	a, err := newAppsRun(o, mode, res)
	if err != nil {
		return err
	}
	for w := 0; w < appWarmup; w++ {
		a.pass(w%a.inputs, a.plain)
	}
	if o.trace {
		return a.traced()
	}
	var passes []appPass
	start := time.Now()
	for i := 0; time.Since(start) < o.seconds || i%a.inputs != 0; i++ {
		passes = append(passes, a.pass(i%a.inputs, a.plain))
	}
	metrics, err := ordered(endToEnd, a.endToEnd(passes))
	if err != nil {
		return err
	}
	res.Metrics = metrics
	res.Detail = a.detail(passes)
	return nil
}

// setupRaw is a pass's Σ over programs of the wall time of apps.Run
// outside Result.Elapsed: engine construction, final checkpoint and close.
func (p appPass) setupRaw() float64 {
	var s float64
	for i := range p.elapsed {
		s += p.wall[i] - p.elapsed[i]
	}
	return s
}

// endToEnd summarizes untraced passes. Set-up and the time ratios are
// medians over passes; peak heap and allocation are means, so every input
// weighs the same.
func (a *appsRun) endToEnd(passes []appPass) []row {
	n := float64(len(a.progs))
	var setup, timeX, latX, peak, alloc []float64
	for _, p := range passes {
		var refSum float64
		perRef := make([]float64, len(p.elapsed))
		for i := range p.elapsed {
			refSum += p.refSec[i]
			perRef[i] = p.elapsed[i] / p.refSec[i]
		}
		setup = append(setup, p.setupRaw()/(refSum/n)*refNominal)
		timeX = append(timeX, p.suite()/refSum)
		latX = append(latX, geomean(perRef))
		peak = append(peak, float64(p.peak)/(1<<20))
		alloc = append(alloc, float64(p.proc.alloc)/n/1024)
	}
	su := medianRow("setup_s", "s", setup)
	su.Note = fmt.Sprintf("set-up at reference speed: per pass, set-up over the mean reference time, times %.4g s", refNominal)
	return []row{
		su,
		medianRow("time_x", "x", timeX),
		medianRow("latency_x", "x", latX),
		seriesRow("peak_mem_mb", "MB", peak, stats.Mean(peak)),
		seriesRow("alloc_kb", "KB", alloc, stats.Mean(alloc)),
	}
}

// tail is the geometric mean over programs of each program's p90 run time.
func (a *appsRun) tail(passes []appPass) row {
	tails := make([]float64, len(a.progs))
	for i := range a.progs {
		tails[i] = stats.Percentile(progMs(passes, i), 90)
	}
	r := scalarRow("tail_ms", "ms", geomean(tails), len(passes))
	r.Note = "geomean over programs of the p90 over untraced passes"
	return r
}

// detail reports each program's median run time, and the raw times the
// ratios are made of: suite time, program runs per second, the geometric
// mean program time and the reference task's time.
func (a *appsRun) detail(passes []appPass) []row {
	var out []row
	for i, prog := range a.progs {
		out = append(out, medianRow("apps."+prog.Name()+"_ms", "ms", progMs(passes, i)))
	}
	var setup, thr, lat, ref []float64
	for _, p := range passes {
		setup = append(setup, p.setupRaw())
		ms := make([]float64, len(p.elapsed))
		for i, e := range p.elapsed {
			ms[i] = e * 1e3
		}
		thr = append(thr, float64(len(p.elapsed))/p.suite())
		lat = append(lat, geomean(ms))
		for _, r := range p.refSec {
			ref = append(ref, r*1e3)
		}
	}
	return append(out,
		medianRow("suite_s", "s", suites(passes)),
		medianRow("throughput", "1/s", thr),
		medianRow("latency_ms", "ms", lat),
		medianRow("reference_ms", "ms", ref),
		medianRow("setup.raw_s", "s", setup))
}

// traced alternates untraced and traced passes over the same inputs; the
// traced ones record spans and feed the engine's registry and events to the
// benchmark. The probes then measure single layers through public APIs.
func (a *appsRun) traced() error {
	o := a.o
	tr := newTracer(0)
	root := tr.begin(0, 0, "bench", "workload "+o.workload)
	reg := obs.NewRegistry()
	sink := &analysisSink{tr: tr}
	var plainPasses, tracedPasses []appPass
	heap := startHeapSampler()
	start := time.Now()
	for i := 0; time.Since(start) < o.seconds || i%(2*a.inputs) != 0; i++ {
		j := (i / 2) % a.inputs
		if i%2 == 0 {
			plainPasses = append(plainPasses, a.pass(j, a.plain))
			continue
		}
		ps := tr.begin(root.ID, root.Trace, "bench", fmt.Sprintf("pass %d", i/2))
		p := a.pass(j, func(prog apps.App, seed int64) apps.Result {
			s := tr.begin(ps.ID, ps.Trace, "apps", "apps.RunObs("+prog.Name()+")")
			sink.setParent(s)
			r := apps.RunObs(prog, a.mode, core.Rtime(), seed, apps.Obs{Label: "collbench/" + prog.Name(), Sink: sink, Metrics: reg})
			tr.end(s)
			return r
		})
		tr.end(ps)
		tracedPasses = append(tracedPasses, p)
	}
	heap.stop()
	tr.end(root)

	var proc procDelta
	for _, p := range tracedPasses {
		proc.merge(p.proc)
	}
	rows := append(proc.runtimeRows(len(tracedPasses)), a.tail(plainPasses), medianRow("runtime.live_heap_mb", "MB", heap.take()))
	base := stats.Median(suites(plainPasses))
	ov := scalarRow("trace.overhead_pct", "%", 100*(ratio(stats.Median(suites(tracedPasses)), base)-1), len(tracedPasses))
	ov.Note = fmt.Sprintf("base: untraced suite median %.6g s over %d passes", base, len(plainPasses))
	rows = append(rows, ov)

	pr, err := runProbes(o, a.res)
	if err != nil {
		return err
	}
	rows = append(rows, pr.Rows...)
	if a.mode == apps.ModeFullAdap {
		events, passUs := sink.take()
		rows = append(rows, coreRows(reg, events, passUs, len(tracedPasses), float64(proc.wallNs)/1e9)...)
	} else {
		// The pinned programs run no framework code; their core layer is the
		// probe's monitored-but-never-switching passes over the same programs.
		rows = append(rows, pr.LBOCore...)
	}
	metrics, err := ordered(perLayer, rows)
	if err != nil {
		return err
	}
	a.res.Metrics = metrics
	a.res.Detail = append(a.detail(tracedPasses), pr.Detail...)
	return writeSpans(o.spansPath(), tr.take())
}

// coreRows reports the core layer from an engine registry and the analysis
// passes an analysisSink saw, per unit of work (units passes or seconds);
// wall is the seconds the measured program ran.
func coreRows(reg *obs.Registry, events int64, passUs []float64, units int, wall float64) []row {
	per := func(c int64) float64 { return ratio(float64(c), float64(units)) }
	trans := reg.TransitionsTotal()
	var busy float64
	for _, us := range passUs {
		busy += us / 1e6
	}
	return coreCounterRows(coreCounters{
		created: per(reg.InstancesCreated.Load()), monitored: per(reg.InstancesMonitored.Load()),
		monitoredFraction: reg.MonitoredFraction(),
		windows:           per(reg.WindowsClosed.Load()), rules: per(reg.RuleEvaluations.Load()),
		transitions: per(trans), switchRatio: ratio(float64(trans), float64(reg.RuleEvaluations.Load())),
		reclaims: per(reg.WeakReclaims.Load()), passes: per(reg.AnalysisRounds.Load()),
		events: per(events), overhead: ratio(busy, wall),
	}, passUs, units)
}

// coreCounters are the core layer's counts, already per unit of work.
type coreCounters struct {
	created, monitored, monitoredFraction float64
	windows, rules, transitions           float64
	switchRatio, reclaims, passes         float64
	events, overhead                      float64
}

func coreCounterRows(c coreCounters, passUs []float64, units int) []row {
	return []row{
		scalarRow("core.instances_created", "count", c.created, units),
		scalarRow("core.instances_monitored", "count", c.monitored, units),
		scalarRow("core.monitored_fraction", "fraction", c.monitoredFraction, units),
		scalarRow("core.windows_closed", "count", c.windows, units),
		scalarRow("core.rule_evaluations", "count", c.rules, units),
		scalarRow("core.transitions", "count", c.transitions, units),
		scalarRow("core.switch_ratio", "fraction", c.switchRatio, units),
		scalarRow("core.weak_reclaims", "count", c.reclaims, units),
		scalarRow("core.analysis_passes", "count", c.passes, units),
		seriesRow("core.analysis_pass_us.p50", "us", passUs, stats.Percentile(passUs, 50)),
		seriesRow("core.analysis_pass_us.p99", "us", passUs, stats.Percentile(passUs, 99)),
		scalarRow("core.self_overhead_fraction", "fraction", c.overhead, units),
		scalarRow("obs.events", "count", c.events, units),
	}
}
