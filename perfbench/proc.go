package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds returns the user+sys CPU time of the benchmark process and
// of each live dist worker.
func cpuSeconds(workers []int) (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	total := tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	for _, pid := range workers {
		s, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// procCPU reads utime+stime of pid from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// space-separated, utime and stime being fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB returns VmHWM, the peak resident set, of the process
// ("self" or a pid) in MB.
func peakRSSMB(proc string) (float64, error) {
	b, err := os.ReadFile("/proc/" + proc + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%s/status: VmHWM: %w", proc, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM", proc)
}

// runtimeSample reads the Go runtime counters of this process that the
// runtime layer reports per pass.
type runtimeSample struct {
	allocBytes, gcCycles, gcCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2)}
}

// cpuTicks are the clock ticks of all CPUs from the first line of
// /proc/stat: those the hypervisor stole from this machine's virtual
// CPUs, and those they spent busy, stolen ones included. Where
// /proc/stat cannot be read both are zero, and adjusted times equal wall
// times.
type cpuTicks struct{ steal, busy float64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	// cpu user nice system idle iowait irq softirq steal ...; guest time
	// is already counted in user.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		if i != 4 && i != 5 { // idle, iowait
			t.busy += v
		}
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stopwatch times an interval by the wall clock, and also as the wall
// time less the share the hypervisor stole of the virtual CPUs' busy
// time. On a shared host that share moves from minute to minute (0-25%
// here) and stretches wall times with it; the adjusted time leaves that
// out.
type stopwatch struct {
	t0 time.Time
	c0 cpuTicks
}

func startWatch() stopwatch { return stopwatch{time.Now(), readCPUTicks()} }

// lap is one interval a stopwatch timed.
type lap struct {
	wall, adjusted time.Duration
	stolen         float64 // share of busy CPU time stolen
}

func (s stopwatch) stop() lap {
	wall := time.Since(s.t0)
	c := readCPUTicks()
	var stolen float64
	if busy := c.busy - s.c0.busy; busy > 0 {
		stolen = (c.steal - s.c0.steal) / busy
	}
	return lap{wall, time.Duration(float64(wall) * (1 - stolen)), stolen}
}
