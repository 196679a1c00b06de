package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the driver judges spreads with, so -compare and
// the driver agree on every figure.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// usage is a reading of the cost meters: CPU time of the benchmark process
// plus its live worker processes, and bytes allocated by this process.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

// readUsage reads the meters. Own CPU comes from getrusage; worker CPU
// comes from /proc/<pid>/stat, because RUSAGE_CHILDREN only counts
// children that were already reaped and the workers are alive.
func readUsage(workerPids []int) usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	for _, pid := range workerPids {
		u.cpu += procCPU(pid)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u.alloc = m.TotalAlloc
	return u
}

// procCPU returns utime+stime of a live process, or 0 if it cannot be read
// (the process is gone, or /proc is absent on this platform).
func procCPU(pid int) time.Duration {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis. utime and stime are fields 14 and 15.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	const clockTick = 100 // USER_HZ; fixed at 100 on Linux
	return time.Duration(ut+st) * time.Second / clockTick
}

// liveHeapMB forces a collection and returns the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what finalizers and sync.Pools released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// calibrate runs one fixed sort-and-map kernel on every core and returns
// its wall time. It runs before every pass so that machine drift, between
// runs and between the passes of one run, is visible next to the workload's
// numbers; nothing is ever normalised by it.
func calibrate() time.Duration {
	n := runtime.NumCPU()
	done := make(chan struct{}, n) // one send per core
	t0 := time.Now()
	for c := 0; c < n; c++ {
		go func(c int) {
			xs := make([]uint64, 1<<18)
			x := uint64(c) + 0x9e3779b97f4a7c15
			for i := range xs {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				xs[i] = x
			}
			sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
			m := make(map[uint64]int, 1<<14)
			for _, v := range xs {
				m[v&(1<<14-1)]++
			}
			done <- struct{}{}
		}(c)
	}
	for c := 0; c < n; c++ {
		<-done
	}
	return time.Since(t0)
}
