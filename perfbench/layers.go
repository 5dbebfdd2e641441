package main

import (
	"fmt"
	"os"
)

// minCoverage is the least median share of a sequence's traced duration
// that the spans of its blocking calls must cover; below it the trace
// misses where the time went.
const minCoverage = 0.9

// layerBreakdown assembles a traced run's per-layer figures: spans recorded
// around the workload's calls, the workload's own obs counters where it
// exercises the layer, and layer replays of the workload's stream.
type layerBreakdown struct {
	stream    []msgSpec
	spans     spanStats
	traceApps []*traceApp // DUMPI input of the trace and analyzer replays

	// mpiSpans replaces spans for the mpi layer's figures when the workload
	// does not call into mpi itself.
	mpiSpans *spanStats
	// coreCounters are the workload's own matcher counters (optimistic,
	// slow path, messages per block); nil takes them from the core replay.
	coreCounters *[3]ratio
	// netCounters are the workload's own transport counters over netOps
	// messages; nil takes them from the netfabric replay.
	netCounters *netCounters
	netOps      int

	overheadPct float64
}

// overhead records the tracing cost from the untraced and traced rates of
// the same run.
func (lb *layerBreakdown) overhead(untraced, traced float64) {
	lb.overheadPct = 100 * (untraced/traced - 1)
}

// finish runs the layer replays, checks the trace and adds every per-layer
// metric to r.
func (lb *layerBreakdown) finish(r *report, o options, recs []*recorder) error {
	cp, err := probeCore(lb.stream)
	if err != nil {
		return err
	}
	dp, err := probeDPA(lb.stream)
	if err != nil {
		return err
	}
	rp, err := probeRDMA(lb.stream)
	if err != nil {
		return err
	}
	mp, err := probeMatch(lb.stream)
	if err != nil {
		return err
	}
	np, err := probeNet(lb.stream)
	if err != nil {
		return err
	}
	ap, err := probeAnalyzer(lb.traceApps)
	if err != nil {
		return err
	}
	if bad := cp.mismatches + dp.mismatches + rp.mismatches + mp.mismatches + np.mismatches; bad > 0 {
		r.notef("layer replays: %d wrong results (core %d, dpa %d, rdma %d, match %d, netfabric %d)",
			bad, cp.mismatches, dp.mismatches, rp.mismatches, mp.mismatches, np.mismatches)
		r.failed += bad
	}

	ms := lb.spans
	mpiFrom := "workload spans"
	if lb.mpiSpans != nil {
		ms, mpiFrom = *lb.mpiSpans, "host-engine ping-pong replay"
	}
	spanMetric := func(name, span string, scale float64, unit string) {
		v, n := ms.medianNs(span)
		r.add(name, unit, v/scale, fmt.Sprintf("median of %d %s spans (%s)", n, span, mpiFrom))
	}
	spanMetric("mpi.irecv_ns", "mpi.irecv", 1, "ns")
	spanMetric("mpi.isend_ns", "mpi.isend", 1, "ns")
	spanMetric("mpi.waitall_us", "mpi.waitall", 1e3, "us")
	spanMetric("mpi.token_wait_us", "mpi.token_wait", 1e3, "us")

	optimistic, slow, perBlock := cp.optimistic, cp.slow, cp.msgsPerBlock
	coreFrom := "core replay counters"
	if lb.coreCounters != nil {
		optimistic, slow, perBlock = lb.coreCounters[0], lb.coreCounters[1], lb.coreCounters[2]
		coreFrom = "workload matcher counters"
	}
	r.add("core.post_ns", "ns", cp.postNs, "PostRecv per receive, replay median")
	r.add("core.arrive_ns", "ns", cp.arriveNs, "ArriveBlock per message, replay median")
	r.add("core.optimistic_ratio", "ratio", optimistic.value(), optimistic.String()+" messages, "+coreFrom)
	r.add("core.conflict_block_ratio", "ratio", cp.conflictBlocks.value(), cp.conflictBlocks.String()+" blocks, core replay results")
	r.add("core.slow_path_ratio", "ratio", slow.value(), slow.String()+" messages, "+coreFrom)
	r.add("core.msgs_per_block", "count", perBlock.value(), perBlock.String()+" messages per block, "+coreFrom)

	r.add("dpa.run_block_ns", "ns", dp.runBlockNs, "RunBlock, empty handler, replay median")
	r.add("dpa.pipeline_msg_ns", "ns", dp.pipelineMsgNs, "CQ.Push to handled, per message, replay median")
	r.add("rdma.send_ns", "ns", rp.sendNs, "QP.Send reaped by CQ.WaitBatch, per message, replay median")
	r.add("rdma.cq_batch_mean", "count", rp.batchMean.value(), rp.batchMean.String()+" completions per WaitBatch")

	r.add("match.post_ns", "ns", mp.postNs, "ListMatcher.PostRecv, replay median")
	r.add("match.arrive_ns", "ns", mp.arriveNs, "ListMatcher.Arrive, replay median")
	r.add("match.post_depth_mean", "count", mp.depth.value(), mp.depth.String()+" posted entries examined per arrival")

	nc, ops, netFrom := np.counters, np.ops, "netfabric replay counters"
	if lb.netCounters != nil {
		nc, ops, netFrom = *lb.netCounters, lb.netOps, "workload transport counters"
	}
	perFlush := ratio{nc.txFrames, nc.flushes}
	perFrame := ratio{nc.txBytes, nc.txFrames}
	stalls := ratio{nc.stalls, nc.txFrames}
	reads := ratio{nc.readReqs, uint64(ops)}
	r.add("netfabric.frame_rtt_us", "us", np.frameRTTus, "8 B Endpoint.Send echo, replay median")
	r.add("netfabric.read_us", "us", np.readUs, fmt.Sprintf("Transport.Read of %d B, replay median", maxSize(lb.stream)))
	r.add("netfabric.frames_per_flush", "count", perFlush.value(), perFlush.String()+" frames per flush, "+netFrom)
	r.add("netfabric.bytes_per_frame", "B", perFrame.value(), perFrame.String()+" bytes per frame, "+netFrom)
	r.add("netfabric.stalls_per_kframe", "1/kframe", 1000*stalls.value(), stalls.String()+" stalls per frame, "+netFrom)
	r.add("netfabric.read_reqs", "1/kmsg", 1000*reads.value(), reads.String()+" read requests per message, "+netFrom)

	r.add("trace.parse_mb_s", "MB/s", ap.parseMBs, fmt.Sprintf("ParseDUMPI over %d apps", len(lb.traceApps)))
	r.add("analyzer.schedule_ms", "ms", ap.scheduleMs, fmt.Sprintf("BuildSchedule, total over %d apps", len(lb.traceApps)))
	for _, b := range figure7Bins {
		r.add(fmt.Sprintf("analyzer.sweep_events_per_s.bins%d", b), "1/s", ap.eventsPerSec[b],
			fmt.Sprintf("%d events per Analyze second at %d bins", ap.events, b))
	}

	cov := lb.spans.medianCoverage()
	if cov < minCoverage {
		r.notef("blocking spans cover a median %.3f of each sequence, want at least %.2f", cov, minCoverage)
		r.failed++
	}
	r.add("bench.trace_overhead_pct", "%", lb.overheadPct, "untraced rate over traced rate, same run")
	r.add("bench.span_coverage", "ratio", cov, fmt.Sprintf("median over %d sequences", len(lb.spans.coverage)))
	for _, layer := range []string{"bench", "mpi", "trace", "analyzer"} {
		r.add("bench.self_pct."+layer, "%", lb.spans.selfPct(layer), "self time share of traced sequence time")
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := tracePath(o)
	if err := writeChromeTrace(path, recs...); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	r.notef("Chrome trace: %s", path)
	return nil
}

func maxSize(stream []msgSpec) int {
	m := 0
	for _, s := range stream {
		m = max(m, s.size)
	}
	return m
}
