package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few cores of a shared host whose speed moves by
// tens of percent from one second to the next: the host's load moves the
// clock frequency and the other hyperthread, and the hypervisor takes the
// vCPUs away for a while. Every run therefore measures a fixed
// reference kernel beside the workload, and the end-to-end figures are
// scaled to the speed that kernel runs at on a quiet host. The kernel
// uses only the standard library, never the repository's code, so a
// change to the program moves the workload and not the reference.
//
// The kernel is AES-CTR and SHA-256 over a buffer that stays in the
// first-level cache: it follows the clock frequency, the other
// hyperthread and the vCPU time the hypervisor grants, and nothing that
// depends on what the workload left in the shared caches.

const (
	calBufBytes   = 16 << 10
	calCipherReps = 300
	// calTries is how many times a probe runs the kernel; the fastest try
	// counts, so a probe that overlaps a collector cycle or a burst of the
	// workload's own background work is not read as a slow host.
	calTries = 3
	// calRefWallMs and calRefCPUMs are one try's mean lane wall time and
	// CPU time summed over the lanes on a quiet 2-vCPU host, an Intel Xeon
	// at 2.1 GHz: the speed every scaled figure is reported at.
	calRefWallMs = 5.0
	calRefCPUMs  = 10.0
)

// calKernel is the reference kernel's fixed inputs, built once per process.
type calKernel struct {
	lanes []calLane
}

// calLane is one thread's share of the kernel.
type calLane struct {
	stream cipher.Stream
	buf    []byte
	cpu    int // the CPU the lane is pinned to, or -1
}

// getKernel builds the kernel on first use: one lane per GOMAXPROCS, as
// the workloads keep every core busy, each pinned to its own CPU of the
// process's affinity set when there are enough of them.
var getKernel = sync.OnceValue(func() *calKernel {
	cpus := allowedCPUs()
	k := &calKernel{}
	for l := 0; l < runtime.GOMAXPROCS(0); l++ {
		block, err := aes.NewCipher(make([]byte, 16))
		if err != nil {
			panic(err) // a 16-byte key is always valid
		}
		lane := calLane{
			stream: cipher.NewCTR(block, make([]byte, aes.BlockSize)),
			buf:    make([]byte, calBufBytes),
			cpu:    -1,
		}
		if l < len(cpus) {
			lane.cpu = cpus[l]
		}
		k.lanes = append(k.lanes, lane)
	}
	return k
})

// run runs one lane's share of the kernel and returns the thread's CPU
// time for it. The lane runs on an OS thread of its own, pinned to the
// lane's CPU: left to the kernel's scheduler, two lanes woken together
// sometimes shared one CPU for the few milliseconds a try lasts, and the
// probe read half speed on an idle host. The goroutine exits without
// unlocking its thread, so the pinned thread ends with it and no workload
// goroutine ever runs under the lane's affinity.
func (l *calLane) run() time.Duration {
	runtime.LockOSThread()
	if l.cpu >= 0 {
		pinThread(l.cpu)
	}
	cpu0 := threadCPU()
	for r := 0; r < calCipherReps; r++ {
		l.stream.XORKeyStream(l.buf, l.buf)
		sum := sha256.Sum256(l.buf)
		l.buf[0] ^= sum[0]
	}
	return threadCPU() - cpu0
}

// cpuSet is the kernel's cpu_set_t: a bit per CPU.
type cpuSet [16]uint64

// allowedCPUs lists the CPUs the process may run on.
func allowedCPUs() []int {
	var set cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return nil
	}
	var cpus []int
	for c := 0; c < len(set)*64; c++ {
		if set[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// pinThread restricts the calling OS thread to cpu. A failure leaves the
// thread unpinned, which only makes the probe noisier.
func pinThread(cpu int) {
	var set cpuSet
	set[cpu/64] |= 1 << (cpu % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
}

// try runs every lane at once and returns the lanes' mean wall time and
// their summed CPU time. The mean, not the slowest lane, is what the
// workloads feel: a host that takes one core away for a while slows the
// program's threads by a share, not all of them by the whole.
func (k *calKernel) try() (wall, cpu time.Duration) {
	walls := make([]time.Duration, len(k.lanes))
	cpus := make([]time.Duration, len(k.lanes))
	var wg sync.WaitGroup
	for i := range k.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			cpus[i] = k.lanes[i].run()
			walls[i] = time.Since(start)
		}()
	}
	wg.Wait()
	for i := range k.lanes {
		wall += walls[i]
		cpu += cpus[i]
	}
	return wall / time.Duration(len(k.lanes)), cpu
}

// threadCPU is the calling OS thread's CPU time, read from the
// scheduler's own accounting (CLOCK_THREAD_CPUTIME_ID) rather than from
// getrusage, whose per-thread figures move in whole clock ticks.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// speedTrack brackets a series of timed units of work (scans,
// campaigns, closed-loop windows, set-up builds) with pauses: one before
// the first unit and one after each unit. A pause collects the garbage,
// reads the heap the program retains, and probes the reference kernel. A
// unit's times are scaled by the probes either side of it, so a host that
// slows down for a few seconds is caught where it happened; and every
// unit starts from a collected heap, so where the collector's cycles fall
// in it does not depend on the units before.
type speedTrack struct {
	wall, cpu []float64 // ms, fastest try of each probe
	heapMB    []float64 // live heap after each pause's collection
}

// pause runs between units, never inside one.
func (t *speedTrack) pause() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	t.heapMB = append(t.heapMB, float64(s[0].Value.Uint64())/(1<<20))
	k := getKernel()
	var bestWall, bestCPU time.Duration
	for i := 0; i < calTries; i++ {
		w, c := k.try()
		if i == 0 || w < bestWall {
			bestWall = w
		}
		if i == 0 || c < bestCPU {
			bestCPU = c
		}
	}
	t.wall = append(t.wall, ms(bestWall))
	t.cpu = append(t.cpu, ms(bestCPU))
}

// wallScale is unit i's wall-time factor: a wall time measured in unit i
// times it is what the quiet reference host would have taken. A rate is
// divided by it.
func (t *speedTrack) wallScale(i int) float64 { return calRefWallMs / around(t.wall, i) }

// cpuScale is unit i's factor for CPU time.
func (t *speedTrack) cpuScale(i int) float64 { return calRefCPUMs / around(t.cpu, i) }

// around is the mean of the probes before and after unit i.
func around(probes []float64, i int) float64 {
	if i+1 >= len(probes) {
		return probes[len(probes)-1]
	}
	return (probes[i] + probes[i+1]) / 2
}

// report records the heap figure and the probes' medians, and notes how
// far the host was from the reference.
func (t *speedTrack) report(out *outcome) {
	// The heap retained after each unit; the pause before the first unit
	// follows the warm-up, not a measured unit.
	out.values["heap_live_mb"] = median(t.heapMB[1:])
	w, c := median(t.wall), median(t.cpu)
	out.values["host.probe_wall_ms"] = w
	out.values["host.probe_cpu_ms"] = c
	out.note("host speed: reference kernel %.3g ms wall, %.3g ms CPU over %d probes (quiet reference %.3g, %.3g)",
		w, c, len(t.wall), calRefWallMs, calRefCPUMs)
}
