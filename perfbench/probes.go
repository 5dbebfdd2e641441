package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/analyzer"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dpa"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/trace"
)

// Layer replays: each probe feeds one layer, through its public functions
// only, the message stream of the workload it explains, and times batches
// of calls. The harness work — building receive records and envelopes,
// recycling buffers, trimming completion queues — happens outside the
// timed stretch on preallocated memory, so a probe's figure is the layer's
// cost rather than the probe's.

// probeBudget is how long each probe measures.
const probeBudget = 300 * time.Millisecond

// minBatches is how many timed batches a probe runs even past its budget.
const minBatches = 20

// loopBudget calls batch until the budget is spent and at least minBatches
// ran, collecting one sample per call.
func loopBudget(batch func() (float64, error)) ([]float64, error) {
	var samples []float64
	start := time.Now()
	for len(samples) < minBatches || time.Since(start) < probeBudget {
		v, err := batch()
		if err != nil {
			return samples, err
		}
		samples = append(samples, v)
	}
	return samples, nil
}

func perOpNs(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// coreProbe is the optimistic matcher's cost on a stream: PostRecv per
// receive, ArriveBlock per message, and the engine counters.
type coreProbe struct {
	postNs, arriveNs float64
	optimistic, slow ratio // messages finalized optimistically / on the slow path, of all
	conflictBlocks   ratio // blocks with at least one conflict, of all
	msgsPerBlock     ratio
	mismatches       int
}

func probeCore(stream []msgSpec) (coreProbe, error) {
	var pr coreProbe
	cfg := bench.PaperMatcherConfig()
	m, err := core.New(cfg)
	if err != nil {
		return pr, err
	}
	sink := obs.New(obs.Options{})
	m.SetObs(sink)
	k := len(stream)
	recvs := make([]match.Recv, k)
	envs := make([]match.Envelope, k)
	ptrs := make([]*match.Envelope, k)
	var arrive []float64
	post, err := loopBudget(func() (float64, error) {
		for i, s := range stream {
			recvs[i] = match.Recv{Source: match.Rank(s.src), Tag: match.Tag(s.tag)}
		}
		t0 := time.Now()
		for i := range recvs {
			if _, matched, err := m.PostRecv(&recvs[i]); err != nil {
				return 0, err
			} else if matched {
				pr.mismatches++
			}
		}
		postD := time.Since(t0)
		for i, s := range stream {
			envs[i].Reset()
			envs[i].Source, envs[i].Tag, envs[i].Size = match.Rank(s.src), match.Tag(s.tag), s.size
			ptrs[i] = &envs[i]
		}
		t1 := time.Now()
		res := m.ArriveBlock(ptrs)
		arrive = append(arrive, perOpNs(time.Since(t1), k))
		// Posting and arriving in one order pairs the i-th message with
		// the i-th receive, conflicts or not (non-overtaking).
		for i, r := range res {
			if r.Unexpected || r.Recv != &recvs[i] {
				pr.mismatches++
			}
		}
		for b := 0; b < k; b += cfg.BlockSize {
			pr.conflictBlocks.den++
			for _, r := range res[b:min(b+cfg.BlockSize, k)] {
				if r.Path == core.PathFast || r.Path == core.PathSlow {
					pr.conflictBlocks.num++
					break
				}
			}
		}
		return perOpNs(postD, k), nil
	})
	if err != nil {
		return pr, fmt.Errorf("core probe: %w", err)
	}
	pr.postNs, pr.arriveNs = median(post), median(arrive)
	pr.optimistic, pr.slow, pr.msgsPerBlock = coreRatios(sink)
	return pr, nil
}

// coreRatios reads the optimistic and slow-path shares of all messages and
// the mean block width from a matcher's counters.
func coreRatios(s *obs.Sink) (optimistic, slow, perBlock ratio) {
	c := &s.Counters
	msgs := c.Load(obs.CtrMessages)
	return ratio{c.Load(obs.CtrOptimistic), msgs}, ratio{c.Load(obs.CtrSlowPath), msgs},
		ratio{msgs, c.Load(obs.CtrBlocks)}
}

// dpaProbe is the accelerator's dispatch cost: an empty block, and the
// whole arrival pipeline per message.
type dpaProbe struct {
	runBlockNs, pipelineMsgNs float64
	mismatches                int
}

func probeDPA(stream []msgSpec) (dpaProbe, error) {
	var pr dpaProbe
	cfg := bench.PaperMatcherConfig()
	acc, err := dpa.New(dpa.Config{Threads: dpa.DefaultThreads})
	if err != nil {
		return pr, err
	}
	defer acc.Close()
	width := min(len(stream), cfg.BlockSize)
	noop := func(int) {}
	const blocksPerBatch = 64
	blocks, err := loopBudget(func() (float64, error) {
		t0 := time.Now()
		for j := 0; j < blocksPerBatch; j++ {
			acc.RunBlock(width, noop)
		}
		return perOpNs(time.Since(t0), blocksPerBatch), nil
	})
	if err != nil {
		return pr, err
	}
	pr.runBlockNs = median(blocks)

	m, err := core.New(cfg)
	if err != nil {
		return pr, err
	}
	cq := rdma.NewCQ()
	p := dpa.NewPipeline(acc, m, cq)
	k := len(stream)
	recvs := make([]match.Recv, k)
	var bad atomic.Int64
	p.Decode = func(c rdma.Completion, env *match.Envelope) *match.Envelope {
		s := stream[c.WRID]
		env.Source, env.Tag, env.Size = match.Rank(s.src), match.Tag(s.tag), s.size
		return env
	}
	p.Handle = func(tid int, res core.Result, c rdma.Completion) {
		if res.Unexpected || res.Recv != &recvs[c.WRID] {
			bad.Add(1)
		}
	}
	p.Start()
	defer p.Stop()
	pushed := uint64(0)
	msgs, err := loopBudget(func() (float64, error) {
		for i, s := range stream {
			recvs[i] = match.Recv{Source: match.Rank(s.src), Tag: match.Tag(s.tag)}
			if _, _, err := m.PostRecv(&recvs[i]); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		for i := range stream {
			cq.Push(rdma.Completion{Op: rdma.OpRecv, WRID: uint64(i)})
		}
		pushed += uint64(k)
		for p.Messages() < pushed {
			runtime.Gosched()
		}
		d := time.Since(t0)
		cq.Trim(pushed) // the pipeline has drained everything below
		return perOpNs(d, k), nil
	})
	if err != nil {
		return pr, fmt.Errorf("dpa pipeline probe: %w", err)
	}
	pr.pipelineMsgNs = median(msgs)
	pr.mismatches = int(bad.Load())
	return pr, nil
}

// rdmaProbe is the in-process fabric's cost: QP.Send to a peer QP with the
// completions reaped by CQ.WaitBatch.
type rdmaProbe struct {
	sendNs     float64
	batchMean  ratio // completions per WaitBatch
	mismatches int
}

func probeRDMA(stream []msgSpec) (rdmaProbe, error) {
	var pr rdmaProbe
	k := len(stream)
	size := maxSize(stream)
	f := rdma.NewFabric()
	cq := rdma.NewCQ()
	a, b := f.ConnectPair(rdma.QPConfig{Depth: k}, rdma.QPConfig{RecvCQ: cq, Depth: k})
	defer a.Close()
	defer b.Close()
	payload := make([]byte, size)
	fillPattern(payload, 1, 0)
	for i := 0; i < k; i++ {
		b.PostRecv(make([]byte, size), uint64(i))
	}
	batch := make([]rdma.Completion, k)
	cursor := uint64(0)
	samples, err := loopBudget(func() (float64, error) {
		t0 := time.Now()
		for i, s := range stream {
			if err := a.Send(payload[:s.size], 0, uint64(i)); err != nil {
				return 0, err
			}
		}
		got := 0
		for got < k {
			n, ok := cq.WaitBatch(cursor, batch[got:])
			if !ok {
				return 0, fmt.Errorf("rdma probe: completion queue closed")
			}
			pr.batchMean.num += uint64(n)
			pr.batchMean.den++
			cursor += uint64(n)
			got += n
		}
		d := time.Since(t0)
		cq.Trim(cursor)
		for _, c := range batch {
			if c.Err != nil || c.Bytes != len(c.Data) || !bytes.Equal(c.Data, payload[:c.Bytes]) {
				pr.mismatches++
			}
			b.PostRecv(c.Data[:cap(c.Data)], c.WRID)
		}
		return perOpNs(d, k), nil
	})
	if err != nil {
		return pr, err
	}
	pr.sendNs = median(samples)
	return pr, nil
}

// matchProbe is the host list matcher's cost on a stream.
type matchProbe struct {
	postNs, arriveNs float64
	depth            ratio // posted entries examined, of arrival searches
	mismatches       int
}

func probeMatch(stream []msgSpec) (matchProbe, error) {
	var pr matchProbe
	l := match.NewListMatcher()
	k := len(stream)
	recvs := make([]match.Recv, k)
	envs := make([]match.Envelope, k)
	var arrive []float64
	post, err := loopBudget(func() (float64, error) {
		for i, s := range stream {
			recvs[i] = match.Recv{Source: match.Rank(s.src), Tag: match.Tag(s.tag)}
		}
		t0 := time.Now()
		for i := range recvs {
			if _, matched := l.PostRecv(&recvs[i]); matched {
				pr.mismatches++
			}
		}
		postD := time.Since(t0)
		for i, s := range stream {
			envs[i].Reset()
			envs[i].Source, envs[i].Tag, envs[i].Size = match.Rank(s.src), match.Tag(s.tag), s.size
		}
		t1 := time.Now()
		for i := range envs {
			if r, ok := l.Arrive(&envs[i]); !ok || r != &recvs[i] {
				pr.mismatches++
			}
		}
		arrive = append(arrive, perOpNs(time.Since(t1), k))
		return perOpNs(postD, k), nil
	})
	if err != nil {
		return pr, err
	}
	st := l.Stats()
	pr.postNs, pr.arriveNs = median(post), median(arrive)
	pr.depth = ratio{st.ArriveTraversed, st.ArriveSearches}
	return pr, nil
}

// netCounters are a TCP transport's datapath counters.
type netCounters struct {
	txFrames, txBytes, flushes, stalls, readReqs uint64
}

func (n *netCounters) add(s *obs.Sink) {
	c := &s.Counters
	n.txFrames += c.Load(obs.CtrNetTxFrames)
	n.txBytes += c.Load(obs.CtrNetTxBytes)
	n.flushes += c.Load(obs.CtrNetFlushes)
	n.stalls += c.Load(obs.CtrNetStalls)
	n.readReqs += c.Load(obs.CtrNetReadReqs)
}

// netProbe is netfabric TCP's cost between two transports on loopback: an
// 8 B frame echo, and a rendezvous Read of the stream's largest message.
type netProbe struct {
	frameRTTus, readUs float64
	counters           netCounters
	ops                int // frames echoed plus reads issued
	mismatches         int
}

func probeNet(stream []msgSpec) (netProbe, error) {
	var pr netProbe
	trs, err := tcpPair()
	if err != nil {
		return pr, err
	}
	defer func() {
		for _, t := range trs {
			t.Close()
		}
	}()
	const depth = 16
	var rqs [2]*rdma.RecvQueue
	var cqs [2]*rdma.CQ
	for k := range trs {
		rqs[k], cqs[k] = rdma.NewRecvQueue(depth), rdma.NewCQ()
		for i := 0; i < depth; i++ {
			rqs[k].Post(make([]byte, eagerLimit), 0)
		}
		// Rank 0 dials rank 1, which accepts inside its Start.
		if err := trs[k].Start(rqs[k], cqs[k]); err != nil {
			return pr, fmt.Errorf("netfabric probe start rank %d: %w", k, err)
		}
	}
	var cursors [2]uint64
	// hop sends msg from rank `from` and reaps it at the other rank.
	hop := func(from int, msg []byte) error {
		to := 1 - from
		if err := trs[from].Endpoint(to).Send(msg, 0, 0); err != nil {
			return err
		}
		c, ok := cqs[to].WaitIndex(cursors[to])
		if !ok {
			return fmt.Errorf("netfabric probe: completion queue closed")
		}
		cursors[to]++
		cqs[to].Trim(cursors[to])
		if c.Err != nil || !bytes.Equal(c.Data, msg) {
			pr.mismatches++
		}
		rqs[to].Post(c.Data[:cap(c.Data)], 0)
		return nil
	}
	msg := make([]byte, eagerBytes)
	fillPattern(msg, 2, 0)
	rtt, err := loopBudget(func() (float64, error) {
		t0 := time.Now()
		if err := hop(0, msg); err != nil {
			return 0, err
		}
		if err := hop(1, msg); err != nil {
			return 0, err
		}
		pr.ops += 2
		return float64(time.Since(t0).Nanoseconds()) / 1e3, nil
	})
	if err != nil {
		return pr, err
	}
	pr.frameRTTus = median(rtt)

	size := maxSize(stream)
	src := make([]byte, size)
	fillPattern(src, 3, 0)
	mr := trs[1].RegisterMemory(src)
	defer trs[1].Deregister(mr)
	dst := make([]byte, size)
	reads, err := loopBudget(func() (float64, error) {
		clear(dst)
		t0 := time.Now()
		if err := trs[0].Read(1, dst, mr.RKey, 0, size); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		pr.ops++
		if !bytes.Equal(dst, src) {
			pr.mismatches++
		}
		return float64(d.Nanoseconds()) / 1e3, nil
	})
	if err != nil {
		return pr, err
	}
	pr.readUs = median(reads)
	for _, t := range trs {
		pr.counters.add(t.Obs())
	}
	return pr, nil
}

// analyzerProbe is the trace layer's parse rate and the analyzer's
// schedule and per-bin sweep cost over a set of DUMPI apps.
type analyzerProbe struct {
	parseMBs     float64
	scheduleMs   float64
	eventsPerSec map[int]float64 // by bin count
	events       int
}

func probeAnalyzer(apps []*traceApp) (analyzerProbe, error) {
	pr := analyzerProbe{eventsPerSec: make(map[int]float64)}
	var parse, sched time.Duration
	perBin := make(map[int]time.Duration)
	nbytes := 0
	for _, app := range apps {
		t0 := time.Now()
		tr, err := parseApp(app)
		if err != nil {
			return pr, err
		}
		parse += time.Since(t0)
		t1 := time.Now()
		sc := analyzer.BuildSchedule(tr, analyzer.Config{})
		sched += time.Since(t1)
		for _, b := range figure7Bins {
			t2 := time.Now()
			if _, err := sc.Analyze(analyzer.Config{Bins: b}); err != nil {
				return pr, fmt.Errorf("%s bins=%d: %w", app.name, b, err)
			}
			perBin[b] += time.Since(t2)
		}
		nbytes += app.bytes
		pr.events += app.events
	}
	pr.parseMBs = float64(nbytes) / 1e6 / parse.Seconds()
	pr.scheduleMs = float64(sched.Nanoseconds()) / 1e6
	for b, d := range perBin {
		pr.eventsPerSec[b] = float64(pr.events) / d.Seconds()
	}
	return pr, nil
}

// streamApp renders reps repetitions of a two-rank message stream as a
// DUMPI app — rank 1 pre-posts the sequence's receives, rank 0 sends, both
// wait — so the trace layers can be fed a message workload's stream.
func streamApp(name string, stream []msgSpec, reps int) (*traceApp, error) {
	tr := &trace.Trace{App: name, Ranks: []trace.RankTrace{{Rank: 0}, {Rank: 1}}}
	for rep := 0; rep < reps; rep++ {
		t := float64(rep)
		for i, s := range stream {
			dt := float64(i) * 1e-6
			tr.Ranks[1].Events = append(tr.Ranks[1].Events, trace.Event{
				Kind: trace.OpRecv, Name: "MPI_Irecv", Peer: 0, Tag: int32(s.tag), Count: int32(s.size), Walltime: t + 0.1 + dt})
			tr.Ranks[0].Events = append(tr.Ranks[0].Events, trace.Event{
				Kind: trace.OpSend, Name: "MPI_Isend", Peer: 1, Tag: int32(s.tag), Count: int32(s.size), Walltime: t + 0.5 + dt})
		}
		for r := range tr.Ranks {
			tr.Ranks[r].Events = append(tr.Ranks[r].Events, trace.Event{
				Kind: trace.OpProgress, Name: "MPI_Waitall", Peer: -1, Walltime: t + 0.9})
		}
	}
	return dumpiApp(tr)
}

// traceStream takes the first K point-to-point sends of an app, in rank
// order, as the message stream the other layers' probes replay for
// trace-sweep. Tags are folded below the ping-pong's control tags and
// sizes kept within [8 B, 64 KiB].
func traceStream(app *traceApp) ([]msgSpec, error) {
	var out []msgSpec
	for r := range app.texts {
		rt, err := trace.ParseDUMPI(bytes.NewReader(app.texts[r]), int32(r))
		if err != nil {
			return nil, err
		}
		for _, e := range rt.Events {
			if e.Kind != trace.OpSend || len(out) == seqLen {
				continue
			}
			size := min(max(int(e.Count), eagerBytes), 64<<10)
			out = append(out, msgSpec{src: 0, tag: int(e.Tag) & 0xfff, size: size})
		}
	}
	if len(out) < seqLen {
		return nil, fmt.Errorf("%s: %d sends, want %d", app.name, len(out), seqLen)
	}
	return out, nil
}
