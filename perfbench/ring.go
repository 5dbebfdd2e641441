package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/rdma/netfabric"
)

const ringReadyTag = 6000 // receiver → its predecessor: the sequence's receives are posted

// tcpPair builds the two TCP transports of a two-rank job in this process:
// a loopback coordinator plus one transport per rank. netfabric.New blocks
// until every rank has registered, so rank 1 registers on a second
// goroutine.
func tcpPair() ([2]rdma.Transport, error) {
	var trs [2]rdma.Transport
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return trs, fmt.Errorf("coordinator listen: %w", err)
	}
	coordErr := make(chan error, 1)
	go func() { coordErr <- netfabric.ServeCoordinator(ln, 2) }()
	cfg := func(rank int) netfabric.Config {
		return netfabric.Config{Network: "tcp", Rank: rank, Ranks: 2, Coord: ln.Addr().String()}
	}
	// A rank that fails to register closes the listener, which ends the
	// coordinator's round and with it the other rank's wait.
	var err1 error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if trs[1], err1 = netfabric.New(cfg(1)); err1 != nil {
			ln.Close()
		}
	}()
	if trs[0], err = netfabric.New(cfg(0)); err != nil {
		ln.Close()
	}
	wg.Wait()
	ln.Close()
	cerr := <-coordErr
	for _, e := range []error{err, err1, cerr} {
		if e != nil {
			for _, t := range trs {
				if t != nil {
					t.Close()
				}
			}
			return trs, fmt.Errorf("tcp transports: %w", e)
		}
	}
	return trs, nil
}

// tcpRing is two ranks in one process over netfabric TCP on loopback,
// using the host (list-matching) engine. Every repetition each rank posts
// the sequence's receives from its peer, releases the peer with a ready
// token, waits for the peer's token, sends its K messages and waits for
// everything — bench.RunMsgRateRing's protocol at two ranks, with the
// Table II apps' send sizes (eager up to 1 KiB, rendezvous above). Rank 0 runs on the calling goroutine,
// rank 1 on one more.
type tcpRing struct {
	worlds [2]*mpi.World
	seed   uint64
	stream []msgSpec
	rep    int
	ranks  [2]*ringRank
	// delivered counts the data messages the transports have carried,
	// warm-up included, as the base of their counters.
	delivered int
	// pattern holds each message's seeded bytes; a rendezvous payload
	// must arrive equal to it past the stamp.
	pattern [][]byte

	ctl  chan ppChunk
	done chan ppResult
	exit chan struct{}
}

// ringRank is one rank's buffers.
type ringRank struct {
	sendBufs [][]byte
	recvBufs [][]byte
	reqs     []*mpi.Request
	recvReqs []*mpi.Request
}

func newTCPRing(stream []msgSpec, seed uint64) (*tcpRing, error) {
	trs, err := tcpPair()
	if err != nil {
		return nil, err
	}
	r := &tcpRing{
		seed: seed, stream: stream,
		ctl:  make(chan ppChunk),
		done: make(chan ppResult),
		exit: make(chan struct{}),
	}
	opts := mpi.Options{Engine: mpi.EngineHost, EagerLimit: eagerLimit}
	for k := range trs {
		// Rank 0 dials rank 1's listener, which accepts inside rank 1's
		// start, so the worlds can be built one after the other.
		if r.worlds[k], err = mpi.NewNetWorld(trs[k], opts); err != nil {
			for j := 0; j < k; j++ {
				r.worlds[j].Close()
			}
			for j := k; j < len(trs); j++ {
				trs[j].Close()
			}
			return nil, fmt.Errorf("tcp world rank %d: %w", k, err)
		}
	}
	for i, m := range stream {
		p := make([]byte, m.size)
		fillPattern(p, seed, i)
		r.pattern = append(r.pattern, p)
	}
	for k := range r.ranks {
		rr := &ringRank{}
		for i, m := range stream {
			rr.sendBufs = append(rr.sendBufs, append([]byte(nil), r.pattern[i]...))
			rr.recvBufs = append(rr.recvBufs, make([]byte, m.size))
		}
		r.ranks[k] = rr
	}
	go r.peer()
	return r, nil
}

func (r *tcpRing) run(dur time.Duration, rec0, rec1 *recorder) (seqResult, error) {
	var total seqResult
	start := time.Now()
	for time.Since(start) < dur {
		res, err := r.chunk(chunkReps, rec0, rec1)
		if err != nil {
			return total, err
		}
		total.add(res)
	}
	return total, nil
}

func (r *tcpRing) chunk(n int, rec0, rec1 *recorder) (seqResult, error) {
	var res seqResult
	first := r.rep
	r.rep += n
	r.ctl <- ppChunk{first: first, n: n, rec: rec1}
	start := time.Now()
	var failed int
	var err error
	for rep := first; rep < first+n && err == nil; rep++ {
		t0 := time.Now()
		var f int
		f, err = r.repetition(0, rep, rec0)
		failed += f
		res.rtt.add(time.Since(t0))
	}
	res.elapsed = time.Since(start)
	if err != nil {
		r.worlds[0].Close() // unblocks rank 1's pending waits
	}
	rr := <-r.done
	if err == nil {
		err = rr.err
	}
	if err != nil {
		return res, fmt.Errorf("ring: %w", err)
	}
	res.failed = failed + rr.failed
	res.msgs = 2 * n * len(r.stream)
	r.delivered += res.msgs
	for _, m := range r.stream {
		res.bytes += 2 * n * m.size
	}
	return res, nil
}

// peer is rank 1's driver goroutine.
func (r *tcpRing) peer() {
	defer close(r.exit)
	for ch := range r.ctl {
		var rr ppResult
		for rep := ch.first; rep < ch.first+ch.n && rr.err == nil; rep++ {
			var f int
			f, rr.err = r.repetition(1, rep, ch.rec)
			rr.failed += f
		}
		if rr.err != nil {
			r.worlds[1].Close() // unblocks rank 0's pending waits
		}
		r.done <- rr
	}
}

// repetition runs one ring sequence on one rank and checks what arrived:
// each payload's stamp names its sender, repetition and index, and the
// rest of every payload, eager or rendezvous, must match the seeded
// pattern byte for byte.
func (r *tcpRing) repetition(rank, rep int, rec *recorder) (failed int, err error) {
	c := r.worlds[rank].Proc(rank).World()
	peer := 1 - rank
	rr := r.ranks[rank]
	seq := int64(rep)
	root := rec.begin("bench.seq", -1, seq)
	defer func() {
		rec.end(root)
		rec.flush()
	}()

	var token [1]byte
	rr.reqs = rr.reqs[:0]
	rr.recvReqs = rr.recvReqs[:0]
	// The token receive goes first, as in bench.RunMsgRateRing.
	s := rec.begin("mpi.irecv", root, seq)
	ready, err := c.Irecv(peer, ringReadyTag, token[:])
	rec.end(s)
	if err != nil {
		return 0, err
	}
	for i, m := range r.stream {
		s := rec.begin("mpi.irecv", root, seq)
		req, err := c.Irecv(peer, m.tag, rr.recvBufs[i])
		rec.end(s)
		if err != nil {
			return 0, err
		}
		rr.reqs = append(rr.reqs, req)
		rr.recvReqs = append(rr.recvReqs, req)
	}
	s = rec.begin("mpi.send", root, seq)
	err = c.Send(peer, ringReadyTag, nil)
	rec.end(s)
	if err != nil {
		return 0, err
	}
	s = rec.begin("mpi.token_wait", root, seq)
	_, err = ready.Wait()
	rec.end(s)
	if err != nil {
		return 0, err
	}
	for i, m := range r.stream {
		putStamp(rr.sendBufs[i], stamp(r.seed, rank, rep, i))
		s := rec.begin("mpi.isend", root, seq)
		req, err := c.Isend(peer, m.tag, rr.sendBufs[i])
		rec.end(s)
		if err != nil {
			return 0, err
		}
		rr.reqs = append(rr.reqs, req)
	}
	s = rec.begin("mpi.waitall", root, seq)
	err = mpi.Waitall(rr.reqs...)
	rec.end(s)
	if err != nil {
		return 0, err
	}
	for i, req := range rr.recvReqs {
		st, _ := req.Wait() // completed: Waitall returned
		buf := rr.recvBufs[i]
		switch {
		case st.Count != len(buf), getStamp(buf) != stamp(r.seed, peer, rep, i):
			failed++
		case !bytes.Equal(buf[stampBytes:], r.pattern[i][stampBytes:]):
			failed++
		}
	}
	return failed, nil
}

// close drains both ranks with a final barrier, as a networked world must
// quiesce before Close, and tears the worlds down.
func (r *tcpRing) close() error {
	close(r.ctl)
	<-r.exit
	// A rank whose barrier fails closes the other world, so the other
	// barrier returns instead of waiting for it.
	errs := make(chan error, 1)
	go func() {
		err := r.worlds[1].Proc(1).World().Barrier()
		if err != nil {
			r.worlds[0].Close()
		}
		errs <- err
	}()
	err := r.worlds[0].Proc(0).World().Barrier()
	if err != nil {
		r.worlds[1].Close()
	}
	if e := <-errs; err == nil {
		err = e
	}
	for _, w := range r.worlds {
		w.Close()
	}
	if err != nil {
		return fmt.Errorf("ring drain: %w", err)
	}
	return nil
}

// fabricSinks returns the transports' sinks as the worlds export them.
func (r *tcpRing) fabricSinks() []*obs.Sink {
	var out []*obs.Sink
	for _, w := range r.worlds {
		for _, n := range w.ObsSinks() {
			if n.Name == "fabric" {
				out = append(out, n.Sink)
			}
		}
	}
	return out
}
