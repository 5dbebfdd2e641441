package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dpa"
	"repro/internal/mpi"
)

// Flow-control tags of the ping-pong, above every data tag the streams use.
const (
	goTag  = 5000 // receiver → sender: the sequence's receives are posted
	ackTag = 5001 // receiver → sender: every message matched and checked
)

// chunkReps is how many sequences the two driver goroutines run between
// synchronizations with each other; it bounds how far a run overshoots its
// measuring time (about 30 ms at Figure 8 rates).
const chunkReps = 100

// seqResult accumulates one measured stretch of a sequence workload.
type seqResult struct {
	msgs    int           // data messages delivered
	bytes   int           // payload bytes delivered (ring)
	failed  int           // messages delivered with the wrong content
	elapsed time.Duration // wall time of the stretch
	rtt     durations     // per-sequence times, driver 0's view
}

func (r *seqResult) add(o seqResult) {
	r.msgs += o.msgs
	r.bytes += o.bytes
	r.failed += o.failed
	r.elapsed += o.elapsed
	r.rtt = append(r.rtt, o.rtt...)
}

// pingpong is the Figure 8 ping-pong between two in-process ranks: rank 1
// posts the sequence's K receives and sends a go token; rank 0 waits for
// the token, sends the K messages and waits for rank 1's acknowledgement,
// which rank 1 sends once every message has arrived and been checked. One
// sequence is in flight at a time (closed loop, two driver goroutines).
type pingpong struct {
	w      *mpi.World
	seed   uint64
	stream []msgSpec
	rep    int // next repetition number

	sendBufs, recvBufs [][]byte
	reqs               []*mpi.Request

	ctl  chan ppChunk  // sender → receiver goroutine; closed by close
	done chan ppResult // receiver goroutine → sender, one per chunk
	exit chan struct{} // closed when the receiver goroutine returns
}

type ppChunk struct {
	first, n int
	rec      *recorder
}

type ppResult struct {
	failed int
	err    error
}

// newPingPong builds the two-rank world. engine and matcher select the
// matching engine; the offload engine runs on 32 DPA threads.
func newPingPong(engine mpi.EngineKind, matcher core.Config, stream []msgSpec, seed uint64) (*pingpong, error) {
	w, err := mpi.NewWorld(2, mpi.Options{
		Engine:     engine,
		Matcher:    matcher,
		DPA:        dpa.Config{Threads: dpa.DefaultThreads},
		RecvDepth:  2 * len(stream),
		EagerLimit: eagerLimit,
	})
	if err != nil {
		return nil, fmt.Errorf("ping-pong world: %w", err)
	}
	p := &pingpong{
		w: w, seed: seed, stream: stream,
		reqs: make([]*mpi.Request, len(stream)),
		ctl:  make(chan ppChunk),
		done: make(chan ppResult),
		exit: make(chan struct{}),
	}
	for _, m := range stream {
		p.sendBufs = append(p.sendBufs, make([]byte, m.size))
		p.recvBufs = append(p.recvBufs, make([]byte, m.size))
	}
	go p.receiver()
	return p, nil
}

// run drives chunks of sequences until dur has elapsed. sendRec and
// recvRec record spans when tracing (nil otherwise).
func (p *pingpong) run(dur time.Duration, sendRec, recvRec *recorder) (seqResult, error) {
	var total seqResult
	start := time.Now()
	for time.Since(start) < dur {
		r, err := p.chunk(chunkReps, sendRec, recvRec)
		if err != nil {
			return total, err
		}
		total.add(r)
	}
	return total, nil
}

// chunk runs n sequences: this goroutine sends, the receiver goroutine
// receives and checks.
func (p *pingpong) chunk(n int, rec, recvRec *recorder) (seqResult, error) {
	var res seqResult
	first := p.rep
	p.rep += n
	p.ctl <- ppChunk{first: first, n: n, rec: recvRec}
	sender := p.w.Proc(0).World()
	var tok [1]byte
	start := time.Now()
	var err error
	for rep := first; rep < first+n && err == nil; rep++ {
		t0 := time.Now()
		seq := int64(rep)
		root := rec.begin("bench.seq", -1, seq)
		s := rec.begin("mpi.token_wait", root, seq)
		_, err = sender.Recv(1, goTag, tok[:])
		rec.end(s)
		if err != nil {
			break
		}
		for i, m := range p.stream {
			putStamp(p.sendBufs[i], stamp(p.seed, 0, rep, i))
			s := rec.begin("mpi.isend", root, seq)
			_, err = sender.Isend(1, m.tag, p.sendBufs[i])
			rec.end(s)
			if err != nil {
				break
			}
		}
		if err != nil {
			break
		}
		s = rec.begin("mpi.ack_wait", root, seq)
		_, err = sender.Recv(1, ackTag, tok[:])
		rec.end(s)
		rec.end(root)
		rec.flush()
		res.rtt.add(time.Since(t0))
	}
	res.elapsed = time.Since(start)
	if err != nil {
		p.w.Close() // unblocks the receiver's pending waits
	}
	rr := <-p.done
	if err == nil {
		err = rr.err
	}
	if err != nil {
		return res, fmt.Errorf("ping-pong: %w", err)
	}
	res.failed = rr.failed
	res.msgs = n * len(p.stream)
	return res, nil
}

// receiver is rank 1's driver goroutine; it serves chunks until ctl closes.
func (p *pingpong) receiver() {
	defer close(p.exit)
	c := p.w.Proc(1).World()
	for ch := range p.ctl {
		var rr ppResult
		rec := ch.rec
		for rep := ch.first; rep < ch.first+ch.n && rr.err == nil; rep++ {
			seq := int64(rep)
			root := rec.begin("bench.seq", -1, seq)
			for i, m := range p.stream {
				s := rec.begin("mpi.irecv", root, seq)
				p.reqs[i], rr.err = c.Irecv(0, m.tag, p.recvBufs[i])
				rec.end(s)
				if rr.err != nil {
					break
				}
			}
			if rr.err != nil {
				break
			}
			s := rec.begin("mpi.send", root, seq)
			rr.err = c.Send(0, goTag, nil)
			rec.end(s)
			if rr.err != nil {
				break
			}
			s = rec.begin("mpi.waitall", root, seq)
			rr.err = mpi.Waitall(p.reqs...)
			rec.end(s)
			if rr.err != nil {
				break
			}
			// Each payload carries its index, so a message matched to the
			// wrong receive — or overtaking one with the same key — fails.
			for i := range p.stream {
				if getStamp(p.recvBufs[i]) != stamp(p.seed, 0, rep, i) {
					rr.failed++
				}
			}
			s = rec.begin("mpi.send", root, seq)
			rr.err = c.Send(0, ackTag, nil)
			rec.end(s)
			rec.end(root)
			rec.flush()
		}
		if rr.err != nil {
			p.w.Close() // unblocks the sender's pending receive
		}
		p.done <- rr
	}
}

// close stops the receiver goroutine and tears the world down.
func (p *pingpong) close() error {
	close(p.ctl)
	<-p.exit
	return p.w.Close()
}
