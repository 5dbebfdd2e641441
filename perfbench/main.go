// Command perfbench is the repository's benchmark. It runs one named
// workload closed loop for a fixed time, checks every output, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer breakdown) as
// a JSON object on the last line of standard output. See README.md for
// the workloads, the metrics and the layers each one explains.
//
//	perfbench --workload pingpong-offload --seed 1 --seconds 20 --trace 0
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named figure with its unit and, for the human-readable
// lines, how it was derived (sample count, ratio base). A shown metric is
// printed but left out of the result line.
type metric struct {
	name, unit string
	value      float64
	note       string
	shown      bool
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	metrics           []metric
	notes             []string
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

// show adds a metric that is printed but not part of the result line: a
// workload's own rate that is a fixed multiple of its msg_rate.
func (r *report) show(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note, shown: true})
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// options are the command-line settings shared by every workload.
type options struct {
	name   string
	seed   uint64
	dur    time.Duration
	traced bool
	outDir string
}

var workloads = map[string]func(options) (*report, error){
	"pingpong-offload":  func(o options) (*report, error) { return runPingPong(o, false) },
	"pingpong-conflict": func(o options) (*report, error) { return runPingPong(o, true) },
	"ring-tcp":          runRing,
	"trace-sweep":       runTraceSweep,
}

func main() {
	workload := flag.String("workload", "", "workload name: pingpong-offload, pingpong-conflict, ring-tcp or trace-sweep")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measuring time per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	outDir := flag.String("out", ".bench_build", "directory for the Chrome trace of a traced run")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	o := options{name: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1, outDir: *outDir}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := rep.print(*workload, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	fmt.Println(line)
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// print writes the human-readable lines and returns the JSON result line.
func (r *report) print(workload string, o options) (string, error) {
	mode := "end-to-end"
	if o.traced {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%v (%s)\n", workload, o.seed, o.dur.Seconds(), mode)
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Printf("  %-40s %16.4f %-10s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, n := range r.notes {
		fmt.Printf("  # %s\n", n)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-40s %16.6f %-10s %d failed of %d attempted\n", "error_rate", errRate, "ratio", r.failed, r.attempted)
	return resultLine(r.failed == 0, r.attempted, r.failed, r.metrics), nil
}

// resultLine renders the machine-readable result: correct, attempted,
// failed and every metric with its unit, values at full precision.
func resultLine(correct bool, attempted, failed int, ms []metric) string {
	sorted := append([]metric(nil), ms...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, correct, attempted, failed)
	first := true
	for _, m := range sorted {
		if m.shown {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// timed runs fn n times and returns each run's wall time in seconds. Each
// run starts from a collected heap, so a collection the previous run left
// due does not land in the next one's time.
func timed(n int, fn func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// setupRuns is how many times trace-sweep warms up; setup_s is the median.
const setupRuns = 9

// medianRate returns the median over a run's stretches (the worlds of a
// message workload, the passes of trace-sweep) of each stretch's count
// over its own wall time. Every stall inside a stretch counts against its
// rate; the median over stretches keeps one stretch that happened to share
// the machine with other work from deciding the run. It also returns the
// stretches' rates, in the order they ran.
func medianRate(counts []int, elapsed []time.Duration) (float64, []float64) {
	rates := make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = float64(c) / elapsed[i].Seconds()
	}
	return median(append([]float64(nil), rates...)), rates
}

// medianPercentile returns the median over stretches of each stretch's
// p-th percentile of its times in µs, the fewest samples a stretch had,
// and the fewest a stretch had beyond its percentile.
func medianPercentile(times []durations, p float64) (v float64, minN, minBeyond int) {
	vals := make([]float64, len(times))
	for i, t := range times {
		var beyond int
		vals[i], beyond = percentile(t.us(), p)
		if i == 0 || len(t) < minN {
			minN = len(t)
		}
		if i == 0 || beyond < minBeyond {
			minBeyond = beyond
		}
	}
	return median(vals), minN, minBeyond
}

// seqMetrics adds the end-to-end metrics of a message workload measured
// over fresh worlds, one stretch each. withPayload prints payload_mb_s, the
// payload bytes the worlds delivered per second.
func seqMetrics(r *report, worlds []seqResult, mallocs allocMeter, setup []float64, withPayload bool) error {
	var total seqResult
	msgs, bytes := make([]int, len(worlds)), make([]int, len(worlds))
	elapsed := make([]time.Duration, len(worlds))
	rtt := make([]durations, len(worlds))
	for i, w := range worlds {
		total.add(w)
		msgs[i], bytes[i], elapsed[i], rtt[i] = w.msgs, w.bytes, w.elapsed, w.rtt
	}
	p50, minN, _ := medianPercentile(rtt, 50)
	p90, _, beyond := medianPercentile(rtt, 90)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	over := fmt.Sprintf("median of %d worlds, %.3f s measured", len(worlds), total.elapsed.Seconds())
	seqs := fmt.Sprintf("median of %d worlds' figures, each over >= %d sequences", len(worlds), minN)
	rate, rates := medianRate(msgs, elapsed)
	r.add("msg_rate", "1/s", rate, fmt.Sprintf("%s; %d messages", over, total.msgs))
	r.add("seq_rtt_p50_us", "us", p50, seqs)
	r.add("seq_rtt_p90_us", "us", p90, fmt.Sprintf("%s, >= %d beyond", seqs, beyond))
	if withPayload {
		payload, _ := medianRate(bytes, elapsed)
		r.show("payload_mb_s", "MB/s", payload/1e6, fmt.Sprintf("%s; %d payload bytes", over, total.bytes))
	}
	r.add("allocs_per_op", "count", mallocs.perOp(total.msgs), fmt.Sprintf("%d allocations / %d messages", mallocs.mallocs, total.msgs))
	r.add("peak_rss_mb", "MB", rss, "VmHWM")
	r.add("setup_s", "s", median(append([]float64(nil), setup...)), fmt.Sprintf("median of %d", len(setup)))
	r.notef("msg_rate of each world: %.0f", rates)
	if beyond < minTail {
		r.notef("seq_rtt_p90_us has only %d samples beyond it in some world", beyond)
	}
	r.attempted += total.msgs
	r.failed += total.failed
	return nil
}
