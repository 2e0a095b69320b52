package main

// Measurements taken from outside the program: process CPU time, the Go
// runtime's own metrics in this process, the peak heap during a query,
// and deltas of the counters the program's layers export.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sqloop/internal/engine"
	"sqloop/internal/obs"
)

// processStart approximates the process's start: package variables are
// initialised before main runs, after only the runtime's own start-up.
var processStart = time.Now()

// cpuTime is this process's user plus system CPU time, which includes
// the in-process wire servers and the garbage collector.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read in this process.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mGCCycles    = "/gc/cycles/total:gc-cycles"
)

// runtimeSample is one read of the runtime counters.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	gcCycles   uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCPU}, {Name: mGCCycles}}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		gcCycles:   s[2].Value.Uint64(),
	}
}

// heapPeak samples the bytes of heap objects every two milliseconds until
// stopped and reports the largest value seen.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: mHeapObjects}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
		}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		read()
		for {
			select {
			case <-h.stop:
				read()
				h.done <- peak
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	return <-h.done
}

// counters is one snapshot of every counter the layers export.
type counters struct {
	engine  []engine.StatsSnapshot
	cache   []engine.StmtCacheStats
	vec     [][2]int64
	regs    []obs.Snapshot // every registry of the system
	clients []obs.Snapshot // the registries the driver reports into
	rt      runtimeSample
	wchar   int64
}

func (sys *system) snapshot() counters {
	var c counters
	for _, e := range sys.engines {
		c.engine = append(c.engine, e.Stats())
		c.cache = append(c.cache, e.StmtCacheStats())
		b, f := e.VecStats()
		c.vec = append(c.vec, [2]int64{b, f})
	}
	for _, r := range sys.regs {
		c.regs = append(c.regs, r.Snapshot())
	}
	for _, r := range sys.clientRegs {
		c.clients = append(c.clients, r.Snapshot())
	}
	c.rt = readRuntime()
	c.wchar = writtenBytes()
	return c
}

// counterDelta sums a counter's growth from a to b over a set of
// registries.
func counterDelta(a, b []obs.Snapshot, name string) float64 {
	var d int64
	for i := range b {
		d += b[i].Counters[name] - a[i].Counters[name]
	}
	return float64(d)
}

// histSeconds sums the growth of a duration histogram's total.
func histSeconds(a, b []obs.Snapshot, name string) float64 {
	var d time.Duration
	for i := range b {
		d += b[i].Histograms[name].Sum - a[i].Histograms[name].Sum
	}
	return d.Seconds()
}

// gaugeMax is the largest current value of a gauge.
func gaugeMax(b []obs.Snapshot, name string) float64 {
	var m int64
	for i := range b {
		m = max(m, b[i].Gauges[name])
	}
	return float64(m)
}

// writtenBytes is how many bytes this process has passed to write
// calls (files and sockets alike); -1 where the kernel does not say.
func writtenBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// tablePages lists the size of each table's page file in 8 KiB pages.
func tablePages(dir string) string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err.Error()
	}
	var parts []string
	for _, e := range ents {
		if name, ok := strings.CutSuffix(e.Name(), ".pages"); ok {
			if fi, err := e.Info(); err == nil {
				parts = append(parts, fmt.Sprintf("%s %d", name, fi.Size()/8192))
			}
		}
	}
	return strings.Join(parts, ", ")
}

// median is the middle value of a non-empty sample, or the mean of the
// two middle values for an even count.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile p (0..100) of durations.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p/100*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}
