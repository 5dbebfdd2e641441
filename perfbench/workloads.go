package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mpi"
)

// warmReps is how many sequences set-up runs before a world counts as
// ready: pools, bounce buffers and the scheduler reach steady state.
const warmReps = 100

// worldsPerRun is how many fresh worlds an end-to-end run of a message
// workload builds and measures in turn, each for an equal share of the
// measuring time. A world's speed varies with how its goroutines settle
// (by about 7% either way on 2 cores), so one world per run would make the
// run's figures swing with it; every end-to-end figure, set-up time
// included, is the median over the worlds.
const worldsPerRun = 9

// seqWorkload is a built world ready to run sequences.
type seqWorkload interface {
	run(dur time.Duration, rec0, rec1 *recorder) (seqResult, error)
	close() error
}

// measureWorlds builds worldsPerRun worlds with build (construction and
// warm-up, timed as set-up), measures each for an equal share of dur and
// closes it. It returns each world's result and set-up time; am counts the
// allocations of the measured stretches only.
func measureWorlds(dur time.Duration, build func() (seqWorkload, error), am *allocMeter) ([]seqResult, []float64, error) {
	var worlds []seqResult
	var setup []float64
	for i := 0; i < worldsPerRun; i++ {
		t0 := time.Now()
		w, err := build()
		if err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		am.start()
		res, err := w.run(dur/worldsPerRun, nil, nil)
		am.stop()
		if cerr := w.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, err
		}
		worlds = append(worlds, res)
		// Collect the closed world before the next one is built, so peak
		// memory is one world's rather than a function of GC timing.
		runtime.GC()
	}
	return worlds, setup, nil
}

// runSeq runs a message workload: untraced, it measures fresh worlds in
// turn; traced, it runs one world untraced then traced for half of the
// measuring time each, hands the world and the spans to breakdown, and
// then adds the per-layer figures. withPayload prints payload_mb_s.
func runSeq(o options, stream []msgSpec, withPayload bool, build func() (seqWorkload, error),
	breakdown func(w seqWorkload, lb *layerBreakdown) error) (*report, error) {
	r := &report{}
	if !o.traced {
		var am allocMeter
		worlds, setup, err := measureWorlds(o.dur, build, &am)
		if err != nil {
			return nil, err
		}
		return r, seqMetrics(r, worlds, am, setup, withPayload)
	}
	w, err := build()
	if err != nil {
		return nil, err
	}
	untraced, err := w.run(o.dur/2, nil, nil)
	var traced seqResult
	epoch := time.Now()
	recs := []*recorder{newRecorder(0, epoch), newRecorder(1, epoch)}
	if err == nil {
		traced, err = w.run(o.dur/2, recs[0], recs[1])
	}
	lb := layerBreakdown{stream: stream, spans: mergeRecorders(recs...)}
	if err == nil {
		lb.overhead(float64(untraced.msgs)/untraced.elapsed.Seconds(), float64(traced.msgs)/traced.elapsed.Seconds())
		err = breakdown(w, &lb)
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	app, err := streamApp("stream", stream, 200)
	if err != nil {
		return nil, err
	}
	lb.traceApps = []*traceApp{app}
	r.attempted += untraced.msgs + traced.msgs
	r.failed += untraced.failed + traced.failed
	return r, lb.finish(r, o, recs)
}

// warmUp checks a warm-up chunk's outcome.
func warmUp(res seqResult, err error) error {
	if err == nil && res.failed > 0 {
		err = fmt.Errorf("warm-up: %d messages wrong", res.failed)
	}
	return err
}

// runPingPong runs pingpong-offload (distinct tags) or pingpong-conflict
// (every message on source 0, tag 7), both on the offload engine with the
// paper's matcher configuration.
func runPingPong(o options, conflict bool) (*report, error) {
	stream := pingpongStream(conflict)
	build := func() (seqWorkload, error) {
		p, err := newPingPong(mpi.EngineOffload, bench.PaperMatcherConfig(), stream, o.seed)
		if err != nil {
			return nil, err
		}
		if err := warmUp(p.chunk(warmReps, nil, nil)); err != nil {
			p.close()
			return nil, err
		}
		return p, nil
	}
	return runSeq(o, stream, false, build, func(w seqWorkload, lb *layerBreakdown) error {
		optimistic, slow, perBlock := coreRatios(w.(*pingpong).w.Proc(1).Matcher().Obs())
		lb.coreCounters = &[3]ratio{optimistic, slow, perBlock}
		return nil
	})
}

// runRing runs ring-tcp: two ranks over netfabric TCP on loopback with the
// host engine and the Table II apps' send sizes in a seeded order.
//
// The ring runs on one P (GOMAXPROCS 1). Its two ranks and four TCP reader
// and writer goroutines hand work to each other thousands of times a
// sequence; with two Ps most handoffs wake another OS thread, and on a
// shared 2-core machine that wake-up latency, not the program, set the
// sequence-time tail (p90 over p50 1.24–1.46 between runs, against
// 1.13–1.18 on one P).
func runRing(o options) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	stream := ringStream(o.seed, tableIIRingSizes())
	build := func() (seqWorkload, error) {
		rg, err := newTCPRing(stream, o.seed)
		if err != nil {
			return nil, err
		}
		if err := warmUp(rg.chunk(warmReps/2, nil, nil)); err != nil {
			rg.close()
			return nil, err
		}
		return rg, nil
	}
	return runSeq(o, stream, true, build, func(w seqWorkload, lb *layerBreakdown) error {
		rg := w.(*tcpRing)
		var nc netCounters
		for _, s := range rg.fabricSinks() {
			nc.add(s)
		}
		lb.netCounters, lb.netOps = &nc, rg.delivered
		return nil
	})
}

// runTraceSweep runs trace-sweep: the 16 Table II apps as in-memory DUMPI
// text, parsed, scheduled and swept over Figure 7's bins.
func runTraceSweep(o options) (*report, error) {
	apps, err := makeTraceApps()
	if err != nil {
		return nil, err
	}
	ts := &traceSweep{apps: apps, order: appOrder(o.seed, len(apps))}
	// Set-up is the warm-up: one analysis of the mid-sized app, the first
	// from cold. An app of tens of milliseconds keeps scheduler jitter a
	// small share of each set-up time.
	bySize := append([]*traceApp(nil), apps...)
	sort.Slice(bySize, func(i, j int) bool { return bySize[i].bytes < bySize[j].bytes })
	mid := bySize[len(bySize)/2]
	setup, err := timed(setupRuns, func() error {
		_, ok, err := ts.analyze(mid, nil, 0)
		if err == nil && !ok {
			err = fmt.Errorf("%s: 1-bin depth differs from the list engine", mid.name)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	r := &report{}
	if !o.traced {
		var am allocMeter
		am.start()
		res, err := ts.run(o.dur, nil)
		am.stop()
		if err != nil {
			return nil, err
		}
		return r, sweepMetrics(r, ts, res, am, setup)
	}

	untraced, err := ts.run(o.dur/2, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(0, time.Now())
	traced, err := ts.run(o.dur/2, rec)
	if err != nil {
		return nil, err
	}
	stream, err := traceStream(apps[ts.order[0]])
	if err != nil {
		return nil, err
	}
	lb := layerBreakdown{stream: stream, spans: mergeRecorders(rec), traceApps: apps}
	lb.overhead(float64(untraced.events)/untraced.elapsed.Seconds(), float64(traced.events)/traced.elapsed.Seconds())
	// mpi does no work here; its figures come from a short host-engine
	// ping-pong of the first app's sends.
	if lb.mpiSpans, err = mpiProbe(stream, o.seed); err != nil {
		return nil, err
	}
	r.attempted += untraced.apps + traced.apps
	r.failed += untraced.failed + traced.failed
	recs := []*recorder{rec}
	return r, lb.finish(r, o, recs)
}

// mpiProbe runs a host-engine ping-pong of stream for probeBudget with
// spans on, for the mpi layer's figures on a workload that does not use it.
func mpiProbe(stream []msgSpec, seed uint64) (*spanStats, error) {
	p, err := newPingPong(mpi.EngineHost, core.Config{}, stream, seed)
	if err != nil {
		return nil, err
	}
	defer p.close()
	epoch := time.Now()
	recs := []*recorder{newRecorder(0, epoch), newRecorder(1, epoch)}
	res, err := p.run(probeBudget, recs[0], recs[1])
	if err != nil {
		return nil, err
	}
	if res.failed > 0 {
		return nil, fmt.Errorf("mpi probe: %d messages wrong", res.failed)
	}
	st := mergeRecorders(recs...)
	return &st, nil
}

// sweepMetrics adds trace-sweep's end-to-end metrics. Every pass analyses
// the same inputs, so each pass is one stretch: msg_rate is the median over
// passes of the traced sends a pass analyses over its wall time, and the
// sequence times are each pass's percentiles of its app analyses.
func sweepMetrics(r *report, ts *traceSweep, res sweepResult, mallocs allocMeter, setup []float64) error {
	sends, events := make([]int, len(res.passes)), make([]int, len(res.passes))
	elapsed := make([]time.Duration, len(res.passes))
	perApp := make([]durations, len(res.passes))
	for i, p := range res.passes {
		sends[i], events[i], elapsed[i], perApp[i] = ts.passSends(), ts.passEvents(), p.elapsed, p.perApp
	}
	p50, n, _ := medianPercentile(perApp, 50)
	p90, _, beyond := medianPercentile(perApp, 90)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	over := fmt.Sprintf("median of %d passes, %.3f s measured", len(res.passes), res.elapsed.Seconds())
	apps := fmt.Sprintf("median of %d passes' figures over %d app analyses each", len(res.passes), n)
	rate, rates := medianRate(sends, elapsed)
	r.add("msg_rate", "1/s", rate, fmt.Sprintf("%s; %d traced sends", over, res.sends))
	r.add("seq_rtt_p50_us", "us", p50, apps)
	r.add("seq_rtt_p90_us", "us", p90, fmt.Sprintf("%s, %d beyond", apps, beyond))
	eventRate, _ := medianRate(events, elapsed)
	r.show("trace_events_per_s", "1/s", eventRate, fmt.Sprintf("%s; %d events", over, res.events))
	r.add("allocs_per_op", "count", mallocs.perOp(res.events), fmt.Sprintf("%d allocations / %d events", mallocs.mallocs, res.events))
	r.add("peak_rss_mb", "MB", rss, "VmHWM")
	r.add("setup_s", "s", median(append([]float64(nil), setup...)), fmt.Sprintf("median of %d", len(setup)))
	r.notef("msg_rate of each pass: %.0f", rates)
	r.notef("seq_rtt_p90_us has %d app analyses beyond it in a pass: it is the second-largest app's", beyond)
	r.notef("Figure 7 depth digest %s", depthDigest(res.lines))
	r.attempted += res.apps
	r.failed += res.failed
	return nil
}

// tracePath is where a traced run writes its Chrome trace.
func tracePath(o options) string {
	return filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.name, o.seed))
}
