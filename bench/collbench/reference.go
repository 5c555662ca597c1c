package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed references. The host is a virtual machine shared with other
// tenants, and its speed moves by tens of percent from one run to the next,
// so a time is only comparable with a time taken at the same moment. Every
// end-to-end time is therefore measured against a fixed reference of the
// benchmark's own, run right next to it. Neither reference runs repository
// code, so a change to the repository moves only the measured side.
//
//   - apps: refTask, run after every program run in the same process: the
//     programs' two kinds of work in fixed code, a churn of small slices and
//     a Go map ending in a forced collection, then a cache-resident sort.
//     The sort's arrays live outside the Go heap, and the churn leaves
//     nothing live, so neither adds to the heap the programs' peak-heap and
//     allocation metrics read.
//   - service: collecho (bench/collecho), a bare net/http server of its own
//     binary. Its turns bracket each of the server child's turns on the same
//     client, and its start-ups alternate with the server child's.
//
// time_x and latency_x are plain ratios. setup_s must read in seconds, so it
// is the set-up time in reference units times a fixed reference time
// (refNominal, refEchoStartNominal): seconds at that host's speed. The raw
// seconds are detail rows.
//
// Under heavy contention from other tenants the churn half slows more than
// the programs in ModeOriginal and the sort half less; their sum tracks both
// apps workloads. A memory-bound walk over a 4 MiB table tracks them worse
// than no reference at all (bench/results/README.md).

// Sizes of the apps reference; together about 4.6 ms on the 2-CPU host.
const (
	refChurnLists = 600 // small slices built, probed and partly retained
	refChurnKeep  = 64  // slices retained at a time
	refSortLen    = 1 << 12
	refSortRounds = 8
)

// The unit setup_s is scaled to: round values near the references' medians
// on the 2-CPU host of results/ (its README gives the measured ones).
const (
	refNominal          = 4.6e-3 // s, one refTask.run
	refEchoStartNominal = 3.0e-3 // s, collecho exec until its first /healthz 200
)

// refTask is the apps reference. The sort's two arrays are one anonymous
// mapping.
type refTask struct {
	src, dst []int64
	sink     int64 // keeps the results observable
}

func newRefTask(seed int64) (*refTask, error) {
	mem, err := syscall.Mmap(-1, 0, 16*refSortLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference arrays: %w", err)
	}
	all := unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), 2*refSortLen)
	t := &refTask{src: all[:refSortLen], dst: all[refSortLen:]}
	r := rand.New(rand.NewSource(seed))
	for i := range t.src {
		t.src[i] = r.Int63()
	}
	return t, nil
}

// run does the fixed task once and returns its wall time in seconds.
func (t *refTask) run() float64 {
	t0 := time.Now()
	r := rand.New(rand.NewSource(1))
	counts := make(map[int]int)
	var keep [][]int
	for b := 0; b < refChurnLists; b++ {
		n := 2 + r.Intn(120)
		var xs []int
		for i := 0; i < n; i++ {
			xs = append(xs, i*7)
		}
		for q := 0; q < n; q++ {
			if slices.Contains(xs, r.Intn(n*7+1)) {
				t.sink++
			}
		}
		counts[r.Intn(1<<12)] += n
		if keep = append(keep, xs); len(keep) > refChurnKeep {
			keep = keep[1:]
		}
	}
	for k, v := range counts {
		t.sink += int64(k ^ v)
	}
	runtime.GC()
	for k := 0; k < refSortRounds; k++ {
		copy(t.dst, t.src)
		slices.Sort(t.dst)
	}
	t.sink += t.dst[0]
	return time.Since(t0).Seconds()
}

// echoPath returns the collecho binary, which run.sh builds next to
// collbench.
func echoPath() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	p := filepath.Join(filepath.Dir(self), "collecho")
	if _, err := os.Stat(p); err != nil {
		return "", errors.New("collecho is not next to collbench: build both (bench/run.sh does)")
	}
	return p, nil
}
