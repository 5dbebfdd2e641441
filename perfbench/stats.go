package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the p-th percentile (0 < p < 100) of samples by the
// nearest-rank rule, and how many samples lie strictly above the rank it
// picked. A tail percentile is only meaningful when that count is at least
// minTail. samples is sorted in place.
func percentile(samples []float64, p float64) (value float64, beyond int) {
	n := len(samples)
	if n == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return samples[rank-1], n - rank
}

// minTail is the number of samples that must lie beyond a reported tail
// percentile for it to describe the tail rather than a handful of outliers.
const minTail = 10

// median returns the 50th percentile of samples (sorted in place).
func median(samples []float64) float64 {
	v, _ := percentile(samples, 50)
	return v
}

// ratio is a share stated with its base: num of den.
type ratio struct {
	num, den uint64
}

// value returns num/den, or 0 for an empty base.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return float64(r.num) / float64(r.den)
}

// String renders the ratio with its base, as in "0.0646 (12918 of 200000)".
func (r ratio) String() string {
	return fmt.Sprintf("%.4f (%d of %d)", r.value(), r.num, r.den)
}

// allocMeter counts heap allocations made by the whole process between
// start and stop, so a per-operation figure includes every goroutine the
// layers run (DPA workers, transport readers and writers), not only the
// driver's.
type allocMeter struct {
	before  uint64
	mallocs uint64
}

func (a *allocMeter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.before = ms.Mallocs
}

func (a *allocMeter) stop() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.mallocs += ms.Mallocs - a.before
}

// perOp returns allocations per operation over ops operations.
func (a *allocMeter) perOp(ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(a.mallocs) / float64(ops)
}

// peakRSSMB returns the process's peak resident set size in MB (1e6 bytes)
// from /proc/self/status (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// durations collects timings of one kind.
type durations []float64

func (d *durations) add(t time.Duration) { *d = append(*d, float64(t.Nanoseconds())) }

// us returns a copy of the samples converted from ns to µs.
func (d durations) us() []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = v / 1e3
	}
	return out
}
