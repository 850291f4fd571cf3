package msbench

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hostInfo is the fingerprint every result records. Results from
// different CPU models or core counts are never compared.
type hostInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Rev        string  `json:"rev"`
	CalibMs    float64 `json:"calib_ms"`
}

func fingerprint(rev string) hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Rev:        rev,
		CalibMs:    calibrate(),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrate is the median CPU time of 5 single-lane reference-kernel
// runs, in ms.
func calibrate() float64 {
	k := newRefKernel(1)
	var ms []float64
	for i := 0; i < 5; i++ {
		ms = append(ms, float64(k.run())/1e6)
	}
	return median(ms)
}

// refKernel is the host reference: fixed, allocation-free work shaped
// like the simulator's, a branchy sort and hash-map lookups over about a
// megabyte, run on as many threads as the workload keeps busy. Tenants
// sharing the host's cores and caches slow it together with the
// simulator, so CPU times divided by its CPU time measure the code more
// than the neighbours. Of the kernels tried (sorts, open-addressing
// probes, a pointer-chasing interpreter), this one tracked a Fig. 10
// unit's slowdowns best.
type refKernel struct {
	lanes []*refLane
}

// refNominal is the kernel's CPU time per lane on the reference host
// (README.md): a quotient times refNominal reads as a time on that host.
const refNominal = 4 * time.Millisecond

type refLane struct {
	keys, buf []uint64
	m         map[uint64]uint32
	sum       uint32
}

func newRefKernel(lanes int) *refKernel {
	k := &refKernel{}
	for i := 0; i < lanes; i++ {
		l := &refLane{keys: make([]uint64, 1<<14), buf: make([]uint64, 1<<14), m: make(map[uint64]uint32, 1<<15)}
		x := uint64(0x9E3779B97F4A7C15)
		for j := range l.keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			l.keys[j] = x
			l.m[x] = uint32(j)
			l.m[x>>1] = uint32(j)
		}
		k.lanes = append(k.lanes, l)
	}
	return k
}

func (l *refLane) run() {
	copy(l.buf, l.keys)
	slices.Sort(l.buf)
	for r := uint(0); r < 4; r++ {
		for _, x := range l.buf {
			l.sum += l.m[x>>r]
		}
	}
}

// run runs one pass of every lane, the lanes running concurrently, and
// returns the mean CPU time of the lanes' threads. CPU time leaves out
// the stretches in which the host ran another tenant on this vCPU.
func (k *refKernel) run() time.Duration {
	cpus := make([]time.Duration, len(k.lanes))
	var wg sync.WaitGroup
	for i := 1; i < len(k.lanes); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cpus[i] = k.lanes[i].timedRun()
		}(i)
	}
	cpus[0] = k.lanes[0].timedRun()
	wg.Wait()
	var sum time.Duration
	for _, c := range cpus {
		sum += c
	}
	return sum / time.Duration(len(cpus))
}

// timedRun runs the lane on a thread of its own and returns that
// thread's CPU time.
func (l *refLane) timedRun() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := cpuClock(clockThread)
	l.run()
	return cpuClock(clockThread) - t
}

// rssKiB is the process's resident set size, or 0 where /proc is not
// available.
func rssKiB() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize()) / 1024
}

// CPU-time clocks of clock_gettime(2), which the syscall package does
// not name. getrusage would do for the process, but for a thread it
// lags by up to a scheduler tick, as long as a reference-kernel run.
const (
	clockProcess = 2 // CLOCK_PROCESS_CPUTIME_ID: all threads of the process
	clockThread  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

// cpuClock reads a CPU-time clock: user plus system time.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	// Fails only for an unknown clock id.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
