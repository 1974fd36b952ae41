package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile reads the q-quantile off sorted values, interpolating linearly.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// ratio is a/b, 0 when the layer did no work at all.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }

// cpuTime is the process's user+system CPU time so far. Server and clients
// share the process, so the clients' share is in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is the process-wide resource reading taken at both ends of a window.
type usage struct {
	cpu   time.Duration
	alloc uint64 // runtime.MemStats.TotalAlloc
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{cpu: cpuTime(), alloc: m.TotalAlloc}
}

// liveHeapMB forces a collection and reads what survived it.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
