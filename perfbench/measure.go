package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fptree/internal/obs"
)

// snapshot is every counter the benchmark reads from outside the server, at
// one instant: the server's metrics registry, the timing decorators (traced
// runs only) and the process's own counters.
type snapshot struct {
	reg      obs.Snapshot
	timing   *timingSnap
	syscalls uint64 // read+write syscalls of the process (/proc/self/io)
	cpuNs    int64  // user+system CPU time of the process
	mallocs  uint64
	allocB   uint64
	numGC    uint32
	// Host CPU ticks from /proc/stat: time the hypervisor gave to other
	// guests, and all time; both 0 when unreadable.
	stealTicks, allTicks uint64
}

func takeSnapshot(f *fleet) snapshot {
	var s snapshot
	s.reg = f.reg.Snapshot()
	if f.timed != nil {
		t := f.timed.snap()
		s.timing = &t
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocB, s.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	s.syscalls = procSyscalls()
	s.stealTicks, s.allTicks = cpuTicks()
	return s
}

// cpuTicks returns the steal and total ticks of the host's CPUs from the
// first line of /proc/stat.
func cpuTicks() (steal, all uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		all += n
		if i == 7 {
			steal = n
		}
	}
	return steal, all
}

// procSyscalls returns syscr+syscw from /proc/self/io, or 0 when the file
// cannot be read (the metric is then left out).
func procSyscalls() uint64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	var n uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ": ")
		if ok && (name == "syscr" || name == "syscw") {
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return 0
			}
			n += v
		}
	}
	return n
}

// peakRSSMiB returns the process's peak resident set (VmHWM in
// /proc/self/status) in MiB, or NaN when it cannot be read.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// quantile is the nearest-rank q-quantile of sorted, exact (no bucketing).
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencyStats gives, per op kind, the median over the measured slices of
// each slice's p50 and p99 client round trip in µs, and the sample count. A
// kind with no samples in some slice has no figure.
type latencyStats struct {
	p50, p99 float64
	samples  int
}

func sliceLatencies(res *loadResult, k opKind) (latencyStats, bool) {
	var p50s, p99s []float64
	n := 0
	for i := range res.slices {
		lat := res.slices[i].lat[k]
		if len(lat) == 0 {
			return latencyStats{}, false
		}
		slices.Sort(lat)
		p50s = append(p50s, quantile(lat, 0.50)/1e3)
		p99s = append(p99s, quantile(lat, 0.99)/1e3)
		n += len(lat)
	}
	return latencyStats{p50: median(p50s), p99: median(p99s), samples: n}, true
}

// opsPerSec is the median over the measured slices of requests completed per
// second.
func opsPerSec(res *loadResult) float64 {
	rates := make([]float64, len(res.slices))
	for i, s := range res.slices {
		rates[i] = float64(s.reqs) / res.sliceDur[i].Seconds()
	}

	return median(rates)
}

// meanRTTus is the mean client round trip of kind k over the measured
// slices, in µs.
func meanRTTus(res *loadResult, k opKind) float64 {
	t := res.totals()
	return ratio(float64(t.rttNs[k]), float64(t.reqsBy[k])) / 1e3
}

// roundOpsRatio is the median over rounds of the real server's throughput in
// the round over the mean throughput of the yardstick loads before and after
// it.
func roundOpsRatio(real, ref []*loadResult) float64 {
	var rs []float64
	for i := range min(len(real), len(ref)-1) {
		rs = append(rs, ratio(opsPerSec(real[i]), (opsPerSec(ref[i])+opsPerSec(ref[i+1]))/2))
	}
	return median(rs)
}

// concatRounds joins the rounds of one server into a single result: their
// slices in order, with the first round's opening snapshot and the last
// round's closing one.
func concatRounds(rounds []*loadResult) *loadResult {
	out := &loadResult{}
	for _, r := range rounds {
		out.slices = append(out.slices, r.slices...)
		out.sliceDur = append(out.sliceDur, r.sliceDur...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.clientCalls += r.clientCalls
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	if len(rounds) > 0 {
		out.before, out.after = rounds[0].before, rounds[len(rounds)-1].after
	}
	return out
}

// totals sums the measured slices.
type totals struct {
	reqs, keyOps, userBytes uint64
	reqsBy                  [numOpKinds]uint64
	rttNs                   [numOpKinds]uint64
}

func (res *loadResult) totals() totals {
	var t totals
	for _, s := range res.slices {
		t.reqs += s.reqs
		t.keyOps += s.keyOps
		t.userBytes += s.userBytes
		for k := range s.lat {
			t.reqsBy[k] += uint64(len(s.lat[k]))
			t.rttNs[k] += s.rttNs[k]
		}
	}
	return t
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects figures by name; a figure that cannot be computed (a
// zero denominator) is left out rather than reported as 0.
type metrics map[string]metric

func (m metrics) put(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	m[name] = metric{v, unit}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

func durationsMedian(ds []time.Duration) time.Duration {
	f := make([]float64, len(ds))
	for i, d := range ds {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

// describe renders a metric line for the human-readable report.
func describe(name string, m metric) string {
	return fmt.Sprintf("  %-34s %14s %s", name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
}
