package analyzer

import (
	"fmt"
	"sort"

	"repro/internal/match"
	"repro/internal/trace"
)

// AnalyzeSerial is the unsharded reference implementation: one global
// (time, seq)-sorted step list replayed on the calling goroutine. It
// defines the semantics the sharded path must reproduce exactly and backs
// the equivalence tests; production code uses Analyze. Every rank's
// matcher gets the full Config.MaxReceives, so the reference also checks
// that sizing a shard's matcher to its receives changes no report.
func AnalyzeSerial(t *trace.Trace, cfg Config) (*Report, error) {
	cfg.fill()
	if err := validateBins(cfg.Bins); err != nil {
		return nil, err
	}

	rep := &Report{App: t.App, Procs: t.NumRanks(), Bins: cfg.Bins, Mix: t.Mix()}

	// Build the global schedule.
	steps := make([]step, 0, t.NumEvents())
	seq := 0
	for ri := range t.Ranks {
		rank := t.Ranks[ri].Rank
		for _, e := range t.Ranks[ri].Events {
			switch e.Kind {
			case trace.OpRecv:
				steps = append(steps, step{time: e.Walltime, seq: seq, rank: rank,
					kind: trace.OpRecv, peer: e.Peer, tag: e.Tag, comm: e.Comm})
			case trace.OpSend:
				// The send becomes an arrival at the destination after the
				// pair's delivery latency.
				delay := cfg.Latency + cfg.LatencySpread*pairSpread(rank, e.Peer)
				steps = append(steps, step{time: e.Walltime + delay, seq: seq,
					rank: e.Peer, kind: trace.OpSend, peer: rank, tag: e.Tag, comm: e.Comm})
			case trace.OpProgress:
				steps = append(steps, step{time: e.Walltime, seq: seq, rank: rank,
					kind: trace.OpProgress})
			}
			seq++
		}
	}
	sort.Slice(steps, func(i, j int) bool {
		if steps[i].time != steps[j].time {
			return steps[i].time < steps[j].time
		}
		return steps[i].seq < steps[j].seq
	})

	// One matching-engine instance per rank, indexed by rank id.
	matchers := make(map[int32]instance, t.NumRanks())
	for ri := range t.Ranks {
		m, err := newInstance(cfg)
		if err != nil {
			return nil, err
		}
		matchers[t.Ranks[ri].Rank] = m
	}

	tags := make(map[int32]struct{})
	keys := make(map[[3]int32]struct{})
	var postedSamples, emptySamples int
	var postedSum float64
	var emptySum float64

	for _, s := range steps {
		m := matchers[s.rank]
		if m == nil {
			continue // send to a rank outside the trace
		}
		switch s.kind {
		case trace.OpRecv:
			r := &match.Recv{Source: match.Rank(s.peer), Tag: match.Tag(s.tag), Comm: match.CommID(s.comm)}
			if r.Class() != match.ClassNone {
				rep.WildcardRecvs++
			}
			if s.tag != trace.AnyTag {
				tags[s.tag] = struct{}{}
			}
			keys[[3]int32{s.peer, s.tag, s.comm}] = struct{}{}
			if err := m.post(r); err != nil {
				return nil, fmt.Errorf("analyzer: rank %d: %w (raise MaxReceives)", s.rank, err)
			}
		case trace.OpSend:
			env := &match.Envelope{Source: match.Rank(s.peer), Tag: match.Tag(s.tag), Comm: match.CommID(s.comm)}
			m.arrive(env)
		case trace.OpProgress:
			d := m.posted()
			postedSum += float64(d)
			if d > rep.PostedMax {
				rep.PostedMax = d
			}
			postedSamples++
			empty, total, ok := m.occupancy()
			if ok && total > 0 {
				emptySum += 100 * float64(empty) / float64(total)
				emptySamples++
			}
			if cfg.RecordSeries {
				rep.Series = append(rep.Series, DataPoint{
					Time:       s.time,
					Rank:       s.rank,
					Posted:     d,
					Unexpected: m.unexpectedNow(),
					EmptyBins:  empty,
					TotalBins:  total,
				})
			}
		}
	}

	for _, m := range matchers {
		rep.Depth = rep.Depth.Add(m.depth())
		rep.Unexpected += m.unexpectedTotal()
	}
	rep.Matched = rep.Depth.Matched
	if postedSamples > 0 {
		rep.PostedAvg = postedSum / float64(postedSamples)
	}
	if emptySamples > 0 {
		rep.EmptyBinPct = emptySum / float64(emptySamples)
	}
	rep.TagsUsed = len(tags)
	rep.UniqueKeys = len(keys)
	return rep, nil
}
