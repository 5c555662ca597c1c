// Command collbench is the repository benchmark: the Table 5 programs with
// the framework in the loop and pinned, and the traffic service under two
// request mixes. It measures every layer from outside, through public APIs.
//
//	collbench run [-workload NAME[,NAME]] [-seed N] [-seconds S] [-trace 0|1] [-out DIR] [-quick]
//	collbench compare [-spec BENCHMARK.json] A.json... -- B.json...
//	collbench checksums [-seed N]
//
// run measures each workload in a fresh child process, checks the outputs,
// prints every metric with its unit, and ends each workload with a one-line
// JSON summary. It exits non-zero unless every output was correct. With
// -trace 1 it reports the per-layer metrics instead and writes the run's
// spans as JSON lines under -spans. See bench/README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// runOpts configures one workload run.
type runOpts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	quick    bool
	spansDir string
}

func (o runOpts) spansPath() string {
	return filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}

// childTimeout bounds one workload child, so a hung run fails instead of
// blocking.
const childTimeout = 170 * time.Second

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runMain(os.Args[2:])
	case "compare":
		err = compareMain(os.Args[2:])
	case "checksums":
		err = checksumsMain(os.Args[2:])
	case "workload":
		err = workloadMain(os.Args[2:])
	case "serve":
		err = serveMain()
	case "probe":
		err = probeMain(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "collbench %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: collbench run|compare|checksums [flags]   (see go doc)")
	os.Exit(2)
}

// runFlags declares the flags run and the workload child share.
func runFlags(fs *flag.FlagSet) (o *runOpts, seconds *int, trace *int) {
	o = &runOpts{}
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are made from")
	seconds = fs.Int("seconds", 20, "seconds each workload measures")
	trace = fs.Int("trace", 0, "1 measures the per-layer metrics with spans on")
	fs.BoolVar(&o.quick, "quick", false, "a two-second run at small scale, for smoke tests")
	fs.StringVar(&o.spansDir, "spans", filepath.Join(".bench_build", "trace"), "directory for the traced run's span JSONL")
	return o, seconds, trace
}

func (o *runOpts) finish(seconds, trace int) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	o.seconds, o.trace = time.Duration(seconds)*time.Second, trace == 1
	if o.quick {
		// Two seconds give the traced service run one untraced and one
		// traced window.
		o.seconds = 2 * time.Second
	}
	return nil
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	o, seconds, trace := runFlags(fs)
	names := fs.String("workload", strings.Join(workloadNames, ","), "comma-separated workloads")
	out := fs.String("out", "", "directory to keep each workload's full result JSON in")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := o.finish(*seconds, *trace); err != nil {
		return err
	}
	var failed []string
	for _, name := range strings.Split(*names, ",") {
		if !slices.Contains(workloadNames, name) {
			return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
		}
		res, err := runChild(name, o.childArgs(*seconds, *trace))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printTable(os.Stdout, res)
		if *out != "" {
			if err := keep(*out, res); err != nil {
				return err
			}
		}
		line, err := summaryLine(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			failed = append(failed, name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("outputs were wrong in %s", strings.Join(failed, ", "))
	}
	return nil
}

// runChild measures one workload in a fresh process of this binary, with
// the workload child's flags args, and returns the result it printed last.
func runChild(name string, args []string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, append([]string{"workload", "-workload", name}, args...)...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload child: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("workload child printed no result: %w", err)
	}
	return &res, nil
}

// childArgs passes the options a workload child shares with run.
func (o *runOpts) childArgs(seconds, trace int) []string {
	args := []string{"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-spans", o.spansDir}
	if o.quick {
		args = append(args, "-quick")
	}
	return args
}

// keep writes a result as <dir>/<workload>-seed<N>[-trace].json.
func keep(dir string, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", r.Workload, r.Seed)
	if r.Trace {
		name += "-trace"
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644)
}

// workloadMain is the workload child: it runs one workload and prints the
// result as one JSON line.
func workloadMain(args []string) error {
	fs := flag.NewFlagSet("workload", flag.ContinueOnError)
	o, seconds, trace := runFlags(fs)
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := o.finish(*seconds, *trace); err != nil {
		return err
	}
	res := &result{Workload: o.workload, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace, Quick: o.quick}
	var err error
	switch o.workload {
	case "apps-adaptive":
		err = runApps(*o, true, res)
	case "apps-pinned":
		err = runApps(*o, false, res)
	case "service-scan":
		err = runService(*o, "scan", res)
	case "service-write":
		err = runService(*o, "write", res)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return err
	}
	res.Host = thisHost()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// checksumsMain prints the reference outputs of the apps workloads.
func checksumsMain(args []string) error {
	fs := flag.NewFlagSet("checksums", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "bench seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := json.MarshalIndent(recordChecksums(*seed), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
