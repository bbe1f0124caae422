package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// envInfo is the environment stamp of a result file.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	PinCPUs    []int   `json:"pin_cpus"` // the CPUs the run takes turns on; empty: the kernel refused, threads float
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Shards     int     `json:"shards"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	// BusyStart is how many CPUs were busy over the quarter second before
	// the first workload. The 1-minute load average is recorded too, but
	// it still remembers the previous run of this very benchmark, so
	// back-to-back runs would stamp each other noisy.
	BusyStart float64 `json:"busy_cpus_start"`
	// Noisy is set when the run started with more than 0.25 × nproc CPUs
	// busy; compare refuses to call a noisy run "ok".
	Noisy bool `json:"noisy"`
}

// benchProcs is the GOMAXPROCS every workload runs at. With two Ps on
// this box's two shared vCPUs, which goroutine wakes which thread is a
// race the host's other tenants decide: CPU per message on chain_small
// moved ±12% and p50 ±7% between runs of one commit, and a quarter more
// on the driver's box. On one P a goroutine hand-off is a queue
// operation on one thread; what is left to measure is the length of the
// path (instructions, system calls, allocations, queueing), which is
// what a change to the program changes. Parallel speed-up is not
// measured: this box could not tell it from its neighbours' load.
const benchProcs = 1

// pinner binds every thread of the process (and, by inheritance, every
// thread it starts later) to one CPU at a time. A thread that the kernel
// moves between the two vCPUs leaves its loopback softirq work and its
// cache behind: unpinned, the same single-threaded round trip on
// chain_small took 29.5 µs or 45 µs for seconds at a time; pinned it
// takes 29.5 µs. Which CPU is the calm one changes (a whole 20 s run on
// one CPU read 43 µs once in ten), so a run moves on to the next CPU
// with every cluster it sets up and every simulator pass, and the calm
// windows and fastest repetitions come from whichever CPU had them.
type pinner struct {
	cpus []int // the CPUs the process may run on, highest first; nil: the kernel refused
	next int
}

const cpuMaskWords = 16 // 1024 CPUs

func newPinner() *pinner {
	var mask [cpuMaskWords]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return &pinner{}
	}
	p := &pinner{}
	for cpu := cpuMaskWords*64 - 1; cpu >= 0; cpu-- {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			p.cpus = append(p.cpus, cpu)
		}
	}
	return p
}

// move pins the process to the next CPU in turn. On a refusal it stops
// pinning for good and the threads float.
func (p *pinner) move() {
	if len(p.cpus) == 0 {
		return
	}
	cpu := p.cpus[p.next%len(p.cpus)]
	p.next++
	var mask [cpuMaskWords]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	for pass := 0; pass < 2; pass++ { // twice: a thread may start while the first pass lists them
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			p.cpus = nil
			return
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH (the thread ended meanwhile) is fine; anything else is a refusal.
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 && e != syscall.ESRCH {
				p.cpus = nil
				return
			}
		}
	}
}

// shardCount is the live data-plane width every live workload uses.
func shardCount() int {
	return min(runtime.NumCPU(), 4)
}

func readEnv() envInfo {
	e := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Shards:     shardCount(),
		LoadStart:  load1(),
		BusyStart:  busyCPUs(250 * time.Millisecond),
	}
	e.Noisy = e.BusyStart > 0.25*float64(e.NProc)
	return e
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

// load1 is the 1-minute load average, or -1 where /proc is missing.
func load1() float64 {
	f := strings.Fields(firstLine("/proc/loadavg"))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// busyCPUs samples /proc/stat twice, d apart, and returns how many CPUs
// were busy in between (0 where /proc is missing).
func busyCPUs(d time.Duration) float64 {
	read := func() (busy, total float64) {
		f := strings.Fields(firstLine("/proc/stat"))
		if len(f) < 5 || f[0] != "cpu" {
			return 0, 0
		}
		for i, s := range f[1:] {
			v, _ := strconv.ParseFloat(s, 64)
			total += v
			if i != 3 && i != 4 { // idle, iowait
				busy += v
			}
		}
		return busy, total
	}
	b0, t0 := read()
	time.Sleep(d)
	b1, t1 := read()
	if t1 <= t0 {
		return 0
	}
	return (b1 - b0) / (t1 - t0) * float64(runtime.NumCPU())
}

// cpuTime is the process's user+system CPU time so far. The generator
// shares the process with the brokers, so its own cycles are in here
// too; the README says so.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func collect() { runtime.GC() }

// heapMB forces a collection and returns the live heap in MB. Two
// cycles: sync.Pool contents survive one in the victim cache.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// epoch anchors every timestamp the benchmark takes: nanoseconds of
// monotonic time since process start fit an int64 and a payload field.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }
