package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// spanHeader carries "<trace>-<parent>" from a traced client request to the
// server child, which records its handler span under that parent.
const spanHeader = "X-Collbench-Span"

// serverSnapshot is what the server child reports at /collbench/snapshot:
// its runtime counters, plus the handler spans, analysis pass durations and
// live-heap samples kept since the previous snapshot.
type serverSnapshot struct {
	Proc       procSample `json:"proc"`
	Events     int64      `json:"events"`
	PassUs     []float64  `json:"analysis_pass_us"`
	Spans      []span     `json:"spans"`
	LiveHeapMB []float64  `json:"live_heap_mb"`
}

// serveMain is the server child: the traffic service with the configuration
// of scripts/service_load.sh (window 8, analysis every 250 ms, cooldown
// flag 0, 8 shards, one live key per shard), served on a loopback port it
// prints, until SIGTERM. Besides the service's endpoints it answers
// /collbench/snapshot and /collbench/heap (the live heap after a forced
// collection, in bytes).
func serveMain() error {
	sink := &analysisSink{}
	svc, err := service.New(service.Config{
		Engine: core.Config{
			WindowSize:  8,
			MonitorRate: 250 * time.Millisecond,
			Rule:        core.Rtime(),
			// 0 is what collserve -cooldown 0 passes; core reads it as its
			// default of 3 windows.
			CooldownWindows: 0,
			Sink:            sink,
		},
		Shards:          8,
		MaxKeysPerShard: 1,
	})
	if err != nil {
		return err
	}
	tr := newTracer(serverSpanBase)
	heap := startHeapSampler()
	defer heap.stop()
	handler := svc.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("/collbench/snapshot", func(w http.ResponseWriter, r *http.Request) {
		events, passUs := sink.take()
		snap := serverSnapshot{Proc: readProc(), Events: events, PassUs: passUs, Spans: tr.take(), LiveHeapMB: heap.take()}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(snap); err != nil {
			fmt.Fprintf(os.Stderr, "collbench serve: snapshot: %v\n", err)
		}
	})
	mux.HandleFunc("/collbench/heap", func(w http.ResponseWriter, r *http.Request) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(w, "%d\n", ms.HeapAlloc)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		parent, trace, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			handler.ServeHTTP(w, r)
			return
		}
		s := tr.begin(parent, trace, "service", "service.handler "+strings.TrimPrefix(r.URL.Path, "/"))
		handler.ServeHTTP(w, r)
		tr.end(s)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	fmt.Printf("listening %s\n", ln.Addr())

	select {
	case <-sigc:
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = srv.Shutdown(ctx)
	if serr := <-serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := svc.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

func parseSpanHeader(v string) (parent, trace uint64, ok bool) {
	t, p, found := strings.Cut(v, "-")
	if !found {
		return 0, 0, false
	}
	trace, err1 := strconv.ParseUint(t, 10, 64)
	parent, err2 := strconv.ParseUint(p, 10, 64)
	return parent, trace, err1 == nil && err2 == nil
}

// server is a running server child.
type server struct {
	cmd   *exec.Cmd
	base  string
	setup time.Duration // exec until the first /healthz 200
	done  chan error    // the child's exit status, once
}

// startServer execs a server child, "serve" for the service or "echo" for
// the collecho reference, and waits for its first healthy /healthz answer.
func startServer(kind string) (*server, error) {
	path, err := os.Executable()
	args := []string{"serve"}
	if kind == "echo" {
		path, err = echoPath()
		args = nil
	}
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(path, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server child: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			addr <- strings.TrimPrefix(sc.Text(), "listening ")
		}
		close(addr)
		io.Copy(io.Discard, out)
		s.done <- cmd.Wait()
	}()
	fail := func(err error) (*server, error) {
		s.kill()
		return nil, err
	}
	select {
	case a, ok := <-addr:
		if !ok {
			return fail(errors.New("server child exited before listening"))
		}
		s.base = "http://" + a
	case <-time.After(30 * time.Second):
		return fail(errors.New("server child did not report its address"))
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				client.CloseIdleConnections()
				return s, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			return fail(fmt.Errorf("server child not healthy: %v", err))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop asks the child to drain and exit, and waits for it.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("server child did not stop after SIGTERM")
	}
}

// kill ends the child without a drain and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// peakRSSMB reads the child's VmHWM (peak resident set) from /proc.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
