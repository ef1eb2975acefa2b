package main

import (
	"encoding/binary"
	"math"
	"runtime/metrics"
	"syscall"
	"time"
)

// cpuUS returns the process's user+system CPU time in microseconds.
func cpuUS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostProbe is the fixed, stdlib-only calibration load run before and
// after every window. It normalises nothing: it exists so a reader can
// tell a regime shift of the sandbox (the container's memory latency
// and scheduler move by tens of percent between sessions) from a
// change in the program. The chase array lives outside the Go heap so
// it neither moves heap_live_mb nor feeds the collector's pacer.
type hostProbe struct {
	mem []byte // anonymous mmap holding one random cycle of little-endian uint32 indices
}

const (
	chaseBytes = 64 << 20
	chaseSteps = 1 << 21 // dependent loads per run
	churnObjs  = 1 << 18 // small objects allocated per run
	pingPongs  = 1 << 14 // goroutine hand-offs per run
)

// newHostProbe builds the probe; skip (a smoke run) returns a nil
// probe, whose run reads 0.
func newHostProbe(skip bool) (*hostProbe, error) {
	if skip {
		return nil, nil
	}
	mem, err := syscall.Mmap(-1, 0, chaseBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	n := chaseBytes / 4
	get := func(i int) uint32 { return binary.LittleEndian.Uint32(mem[i*4:]) }
	put := func(i int, v uint32) { binary.LittleEndian.PutUint32(mem[i*4:], v) }
	for i := 0; i < n; i++ {
		put(i, uint32(i))
	}
	// Sattolo's algorithm: a single cycle through every element, so the
	// chase cannot fall into a short loop that fits in cache. The
	// generator is fixed; the probe is the same on every run.
	x := uint64(0x9E3779B97F4A7C15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		vi, vj := get(i), get(j)
		put(i, vj)
		put(j, vi)
	}
	return &hostProbe{mem: mem}, nil
}

func (h *hostProbe) close() {
	if h != nil && h.mem != nil {
		_ = syscall.Munmap(h.mem) // the process is about to exit; nothing to do on failure
		h.mem = nil
	}
}

var probeSink uint64

// run executes the three fixed loads and returns their total wall time
// in milliseconds.
func (h *hostProbe) run() float64 {
	if h == nil {
		return 0
	}
	t0 := time.Now()
	idx := uint32(0)
	for i := 0; i < chaseSteps; i++ {
		idx = binary.LittleEndian.Uint32(h.mem[int(idx)*4:])
	}
	probeSink += uint64(idx)

	var keep [64]*[48]byte
	for i := 0; i < churnObjs; i++ {
		o := new([48]byte)
		o[0] = byte(i)
		keep[i&63] = o
	}
	probeSink += uint64(keep[7][0])

	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	for i := 0; i < pingPongs; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	<-pong
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// runtimeSample is the Go runtime's own account of a window, read from
// runtime/metrics at its two ends.
type runtimeSample struct {
	gcCycles  uint64
	gcCPU     float64 // seconds
	totalCPU  float64 // seconds
	schedHist *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		out.schedHist = s[3].Value.Float64Histogram()
	}
	return out
}

// schedLatencyP50US is the median goroutine scheduling latency between
// two samples, in microseconds, from the runtime's histogram.
func schedLatencyP50US(a, b runtimeSample) float64 {
	if a.schedHist == nil || b.schedHist == nil || len(a.schedHist.Counts) != len(b.schedHist.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(b.schedHist.Counts))
	for i := range delta {
		delta[i] = b.schedHist.Counts[i] - a.schedHist.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	var run uint64
	for i, c := range delta {
		run += c
		if run*2 >= total {
			lo, hi := b.schedHist.Buckets[i], b.schedHist.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return (lo + hi) / 2 * 1e6
		}
	}
	return 0
}
