package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one sequence share seq; parent indexes the enclosing
// span of the same sequence (-1 for the sequence's root).
type span struct {
	name       string // "<layer>.<operation>", e.g. "mpi.isend"
	start, end int64  // ns since the recorder set's epoch
	parent     int32
	seq        int64
}

// layer returns the module a span's name attributes it to.
func (s *span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i > 0 {
		return s.name[:i]
	}
	return s.name
}

// maxSamplesPerName caps the durations kept per span name, so a long traced
// run holds bounded memory; medians come from the first samples.
const maxSamplesPerName = 1 << 18

// exportSeqs is how many sequences per recorder are kept for the Chrome
// trace file.
const exportSeqs = 64

// recorder collects the spans of one driver goroutine. Spans live in memory
// for the current sequence only; flush folds them into per-name durations,
// per-layer self time and the coverage of the sequence's root, and keeps
// the first exportSeqs sequences for the trace file. A nil recorder records
// nothing, which is the untraced run.
type recorder struct {
	tid   int
	epoch time.Time

	cur  []span
	kept []span
	seqs int

	durs     map[string]durations
	selfNs   map[string]int64
	rootNs   int64
	coverage []float64
}

func newRecorder(tid int, epoch time.Time) *recorder {
	return &recorder{
		tid: tid, epoch: epoch,
		durs:   make(map[string]durations),
		selfNs: make(map[string]int64),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string, parent int32, seq int64) int32 {
	if r == nil {
		return -1
	}
	r.cur = append(r.cur, span{name: name, start: r.now(), parent: parent, seq: seq})
	return int32(len(r.cur) - 1)
}

// end closes the span begin returned.
func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.cur[i].end = r.now()
}

// flush closes the current sequence: it derives every span's self time
// (its duration minus the part its children cover), the share of each
// root's duration its child spans cover, and the per-name durations.
func (r *recorder) flush() {
	if r == nil || len(r.cur) == 0 {
		return
	}
	child := make([]int64, len(r.cur))
	for i := range r.cur {
		if p := r.cur[i].parent; p >= 0 {
			child[p] += r.cur[i].end - r.cur[i].start
		}
	}
	for i := range r.cur {
		s := &r.cur[i]
		d := s.end - s.start
		r.selfNs[s.layer()] += d - child[i]
		if ds := r.durs[s.name]; len(ds) < maxSamplesPerName {
			r.durs[s.name] = append(ds, float64(d))
		}
		if s.parent < 0 {
			r.rootNs += d
			if d > 0 && child[i] > 0 {
				r.coverage = append(r.coverage, float64(child[i])/float64(d))
			}
		}
	}
	if r.seqs < exportSeqs {
		r.kept = append(r.kept, r.cur...)
	}
	r.seqs++
	r.cur = r.cur[:0]
}

// spanStats merges the recorders of one traced run.
type spanStats struct {
	durs     map[string]durations
	selfNs   map[string]int64
	rootNs   int64
	coverage []float64
}

func mergeRecorders(recs ...*recorder) spanStats {
	st := spanStats{durs: make(map[string]durations), selfNs: make(map[string]int64)}
	for _, r := range recs {
		if r == nil {
			continue
		}
		for k, v := range r.durs {
			st.durs[k] = append(st.durs[k], v...)
		}
		for k, v := range r.selfNs {
			st.selfNs[k] += v
		}
		st.rootNs += r.rootNs
		st.coverage = append(st.coverage, r.coverage...)
	}
	return st
}

// medianNs returns the median duration of spans named name, in ns, and
// the sample count.
func (st spanStats) medianNs(name string) (float64, int) {
	d := st.durs[name]
	if len(d) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), d...)
	return median(s), len(s)
}

// selfPct returns the layer's self time as a percentage of all root time.
func (st spanStats) selfPct(layer string) float64 {
	if st.rootNs == 0 {
		return 0
	}
	return 100 * float64(st.selfNs[layer]) / float64(st.rootNs)
}

// medianCoverage is the median share of a sequence's traced duration that
// its child spans cover.
func (st spanStats) medianCoverage() float64 {
	if len(st.coverage) == 0 {
		return 0
	}
	return median(append([]float64(nil), st.coverage...))
}

// writeChromeTrace writes the kept spans of recs as Chrome trace_event
// JSON: one complete ("X") event per span, one thread per recorder, with
// the sequence ID and parent in args.
func writeChromeTrace(path string, recs ...*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for _, r := range recs {
		if r == nil {
			continue
		}
		for _, s := range r.kept {
			events = append(events, event{
				Name: s.name, Cat: s.layer(), Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: r.tid,
				Args: map[string]any{"seq": s.seq, "parent": s.parent},
			})
		}
	}
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
