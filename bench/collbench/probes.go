package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/stats"
)

// The probes time single layers through their public APIs. They run at the
// end of every traced run, identically for every workload, in a fresh child
// process: the workload's heap (a traced service run keeps every span) would
// otherwise slow the forced collections the LBO's programs make.

// probeRounds is the number of alternating rounds per probe; each probe
// reports the median round.
const probeRounds = 9

// probeSink keeps probe results observable so the compiler cannot drop the
// measured calls.
var probeSink atomic.Int64

// probeResult is what the probe stage reports: per-layer rows, the core
// layer of the LBO's monitored passes, detail rows, and the LBO's output
// checks.
type probeResult struct {
	Rows      []row `json:"rows"`
	LBOCore   []row `json:"lbo_core"`
	Detail    []row `json:"detail"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

// runProbes runs the probe stage in a child process and adds its output
// checks to res.
func runProbes(o runOpts, res *result) (probeResult, error) {
	var pr probeResult
	self, err := os.Executable()
	if err != nil {
		return pr, err
	}
	args := []string{"probe", "-seed", fmt.Sprint(o.seed)}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return pr, fmt.Errorf("probe child: %w", err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &pr); err != nil {
		return pr, fmt.Errorf("probe child printed no result: %w", err)
	}
	res.Attempted += pr.Attempted
	res.Failed += pr.Failed
	return pr, nil
}

// probeMain is the probe child.
func probeMain(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed the LBO's program inputs are made from")
	quick := fs.Bool("quick", false, "small probes, for smoke tests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ops := 1 << 20
	if *quick {
		ops = 1 << 14
	}
	bare1, mon1 := recordTax(1, ops)
	bare2, mon2 := recordTax(2, ops)
	tax1 := scalarRow("core.record_tax_ns.procs1", "ns", mon1-bare1, probeRounds)
	tax1.Note = fmt.Sprintf("base: bare Contains %.4g ns", bare1)
	tax2 := scalarRow("core.record_tax_ns.procs2", "ns", mon2-bare2, probeRounds)
	tax2.Note = fmt.Sprintf("base: bare Contains %.4g ns per goroutine, 2 goroutines on one set", bare2)
	var checks result
	tax, lboCore, detail := lbo(*seed, *quick, &checks)
	pr := probeResult{
		Rows: []row{tax1, tax2, scalarRow("collections.bare_op_ns", "ns", bare1, probeRounds),
			newNs(ops / 4), decideNs(*quick), tax},
		LBOCore: lboCore,
		Detail: append(detail,
			scalarRow("probe.monitored_op_ns.procs1", "ns", mon1, probeRounds),
			scalarRow("probe.monitored_op_ns.procs2", "ns", mon2, probeRounds),
			scalarRow("probe.bare_op_ns.procs2", "ns", bare2, probeRounds)),
		Attempted: checks.Attempted,
		Failed:    checks.Failed,
	}
	b, err := json.Marshal(pr)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// recordTax times Contains on a bare hash set and on a monitored one drawn
// from a context, with procs goroutines probing one shared set. It returns
// the median per-goroutine ns/op of each. The context is created at
// GOMAXPROCS=procs, so the monitor takes the form core picks there.
func recordTax(procs, ops int) (bare, monitored float64) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	e := core.NewEngineManual(core.Config{WindowSize: 1 << 30})
	defer e.Close()
	ctx := core.NewSetContext[int](e, core.WithName("collbench/record-tax"))
	mon := ctx.NewSet()
	plain := collections.NewSetOf[int](collections.HashSetID, 0)
	for i := 0; i < 1024; i++ {
		mon.Add(i)
		plain.Add(i)
	}
	var b, m []float64
	for r := 0; r < probeRounds; r++ {
		b = append(b, containsNs(plain, procs, ops))
		m = append(m, containsNs(mon, procs, ops))
	}
	return stats.Median(b), stats.Median(m)
}

// containsNs runs ops Contains calls (half hits) on each of procs
// goroutines and returns the wall time per goroutine op.
func containsNs(s collections.Set[int], procs, ops int) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hits := 0
			for i := 0; i < ops; i++ {
				if s.Contains((i*7 + g) & 2047) {
					hits++
				}
			}
			probeSink.Add(int64(hits))
		}(g)
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// newNs times ctx.NewSet on a warm context whose one-instance window is
// full, so every call takes the unmonitored creation fast path.
func newNs(n int) row {
	e := core.NewEngineManual(core.Config{WindowSize: 1})
	defer e.Close()
	ctx := core.NewSetContext[int](e, core.WithName("collbench/new"))
	ctx.NewSet()
	var xs []float64
	for r := 0; r < probeRounds; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if ctx.NewSet() == nil {
				probeSink.Add(1)
			}
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return medianRow("core.new_ns", "ns", xs)
}

// decideNs is core.DecisionOverheadNs at window 100: the Figure 7 quantity.
func decideNs(quick bool) row {
	iters := 20000
	if quick {
		iters = 200
	}
	models := perfmodel.Default()
	var xs []float64
	for r := 0; r < probeRounds; r++ {
		xs = append(xs, core.DecisionOverheadNs(models, core.Rtime(), 100, iters))
	}
	return medianRow("core.decide_ns.w100", "ns", xs)
}

// lbo measures the monitoring tax against its lower bound (the LBO
// method): the Table 5 programs pinned in ModeOriginal, no framework code,
// against the same programs under core.ImpossibleRule, which monitors and
// analyzes but never switches. Pairs alternate which side runs first; each
// pair runs one input, and both sides' outputs must agree. It also returns
// the monitored side's core layer.
func lbo(seed int64, quick bool, res *result) (tax row, coreLayer, detail []row) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	scale, budget, minPairs := 1.0, 2500*time.Millisecond, 3
	if quick {
		scale, budget, minPairs = 0.1, 0, 1
	}
	progs := apps.All(scale)
	reg := obs.NewRegistry()
	sink := &analysisSink{}
	suite := func(mode apps.Mode, input int64) (float64, []int) {
		var s float64
		var outs []int
		for _, p := range progs {
			r := apps.RunObs(p, mode, core.ImpossibleRule(), input, apps.Obs{Label: "collbench/lbo/" + p.Name(), Sink: sink, Metrics: reg})
			s += r.Elapsed.Seconds()
			outs = append(outs, r.Sink)
		}
		return s, outs
	}
	var pinned, monitored []float64
	start := time.Now()
	for k := 0; k < minPairs || time.Since(start) < budget; k++ {
		input := appSeed(seed, k%appInputs)
		var p, m float64
		var po, mo []int
		if k%2 == 0 {
			p, po = suite(apps.ModeOriginal, input)
			m, mo = suite(apps.ModeFullAdap, input)
		} else {
			m, mo = suite(apps.ModeFullAdap, input)
			p, po = suite(apps.ModeOriginal, input)
		}
		pinned, monitored = append(pinned, p), append(monitored, m)
		for i := range po {
			res.check(po[i] == mo[i])
		}
	}
	base := stats.Median(pinned)
	tax = scalarRow("core.monitor_tax_pct", "%", 100*(stats.Median(monitored)/base-1), len(pinned))
	tax.Note = fmt.Sprintf("base: pinned suite median %.6g s, %d pairs, scale %g", base, len(pinned), scale)
	var wall float64
	for _, m := range monitored {
		wall += m
	}
	events, passUs := sink.take()
	coreLayer = coreRows(reg, events, passUs, len(monitored), wall)
	detail = []row{medianRow("lbo.pinned_suite_s", "s", pinned), medianRow("lbo.monitored_suite_s", "s", monitored)}
	return tax, coreLayer, detail
}
