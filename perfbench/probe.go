package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed probes. The shared 2-vCPU hosts this benchmark runs on change
// speed by up to 1.5x over minutes as neighbours load the machine, and
// every time a run reports, CPU time per request included, moves with that
// speed. No window length averages it out. So the window is cut into
// slices, and between slices the clients pause while a fixed reference
// kernel runs on both CPUs. Each slice's times are scaled by the nominal
// probe time over the CPU time the probes near it took, raised to the
// measured elasticity: a slower host stretches the probe and the workload
// alike and cancels, while a change to the program moves only the
// workload. The probe is timed in its own
// threads' CPU time, so background work the program left running does not
// count towards it.
//
// The kernel touches nothing of the program under test, allocates nothing,
// and keeps its tables in pointer-free package arrays, outside the Go heap
// the program's GC paces against. A forced GC before each probe keeps the
// program's collector from running during it.

const (
	sliceLen     = 250 * time.Millisecond
	probeUnits   = 48                    // kernel units per probe goroutine
	probeNominal = 40 * time.Millisecond // probe CPU time (both threads) on the nominal host
	probeSmooth  = 3                     // a slice's scale is the median of the probes within this many of it
	// probeElasticity is how much more the workloads' times move than the
	// probe's as the host speeds up or slows down: over 30 runs on the
	// shared host, every time metric of every workload moved as the
	// 1.3th to 1.5th power of the probe time (1.8th for hot-hits p50).
	probeElasticity = 1.4
)

const (
	refTableLen = 1 << 19 // 4 MiB of uint64: larger than a core's private caches
	refHashLen  = 1 << 14 // open-addressed hash table slots
	refDocLen   = 2 << 10
)

var (
	refTable [refTableLen]uint64
	refHashK [refHashLen]uint64
	refHashV [refHashLen]uint64
	refDoc   [refDocLen]byte
	refDocN  int
	refOnce  sync.Once
)

// refInit fills the kernel's tables deterministically.
func refInit() {
	for i := range refTable {
		refTable[i] = mix(uint64(i))
	}
	for i := 0; i < refHashLen/2; i++ {
		refPut(mix(uint64(i), 1), uint64(i))
	}
	// A JSON document shaped like a /run request body.
	doc := []byte(`{"workload":{"name":"fig21","n":32,"cost":3},"scheme":{"name":"process","x":4},"config":{"p":4,"chunk":1,"busLatency":2},"pad":[`)
	for i := 0; len(doc) < refDocLen-64; i++ {
		doc = append(doc, `{"k":"stmt","v":1234567,"ok":true},`...)
	}
	doc = append(doc, `0]}`...)
	refDocN = copy(refDoc[:], doc)
}

func refPut(k, v uint64) {
	for i := k % refHashLen; ; i = (i + 1) % refHashLen {
		if refHashK[i] == 0 {
			refHashK[i], refHashV[i] = k, v
			return
		}
	}
}

func refGet(k uint64) uint64 {
	for i := k % refHashLen; ; i = (i + 1) % refHashLen {
		switch refHashK[i] {
		case k:
			return refHashV[i]
		case 0:
			return 0
		}
	}
}

// refUnit is one unit of reference work, about 100 µs on the nominal host:
// JSON scanning, hashing, hash-table probes, dependent reads across a table
// larger than the private caches, and a small sort — the kinds of work a
// dsserve request is made of. It returns a value so none of it is elided.
func refUnit(seed uint64, small *[256]uint64) uint64 {
	x := seed
	if json.Valid(refDoc[:refDocN]) {
		x++
	}
	sum := sha256.Sum256(refDoc[:refDocN])
	x ^= uint64(sum[0]) | uint64(sum[7])<<8
	for i := uint64(0); i < 2048; i++ {
		x += refGet(mix(x%(refHashLen/2)+i, 1) | 1)
	}
	for i := 0; i < 2048; i++ {
		x = refTable[x%refTableLen] ^ uint64(i)
	}
	for i := range small {
		small[i] = mix(x, uint64(i))
	}
	slices.Sort(small[:])
	return x + small[0]
}

var probeSink uint64

// probe runs the reference kernel on two goroutines, one per CPU the
// workloads saturate, each locked to its thread, and returns the CPU time
// the two threads spent on it in nanoseconds. The caller must have paused
// the clients.
func probe() float64 {
	refOnce.Do(refInit)
	var wg sync.WaitGroup
	var out, cpu [2]uint64
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPU()
			var small [256]uint64
			x := uint64(g)
			for u := 0; u < probeUnits; u++ {
				x = refUnit(x, &small)
			}
			out[g], cpu[g] = x, uint64(threadCPU()-c0)
		}(g)
	}
	wg.Wait()
	probeSink += out[0] + out[1]
	return float64(cpu[0] + cpu[1])
}

// threadCPU is the calling thread's CPU time in nanoseconds.
func threadCPU() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	// Linux always has the calling thread's CPU clock; the call cannot fail.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

func cpuNs(ru syscall.Rusage) int64 {
	return tvNs(ru.Utime) + tvNs(ru.Stime)
}

func tvNs(t syscall.Timeval) int64 { return int64(t.Sec)*1e9 + int64(t.Usec)*1e3 }

// scales returns, for each of the n slices that lie between n+1 probes,
// the factor that scales the slice's times to the nominal host: the
// nominal probe time ÷ the median of the probes near the slice, raised to
// probeElasticity.
func scales(probes []float64, n int) []float64 {
	out := make([]float64, n)
	for s := range out {
		near := probes[max(0, s-probeSmooth+1):min(len(probes), s+probeSmooth+1)]
		out[s] = math.Pow(float64(probeNominal)/median(near), probeElasticity)
	}
	return out
}
