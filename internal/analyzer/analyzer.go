// Package analyzer is the paper's contribution C2: the trace processing
// stage that replays an MPI application trace through the optimistic
// matching data structures and gathers matching-behaviour statistics
// (§V-A). Each rank owns one set of matching structures; sends become
// arrivals at their destination rank after a small latency; receives are
// posted against the unexpected store first, exactly as the engine does;
// progress operations sample structure state. Collective and one-sided
// operations only contribute to the call-mix statistics (Figure 6).
package analyzer

import (
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Engine selects which matching strategy the analyzer emulates — the
// optimistic engine by default, or one of the Table I baselines for
// cross-strategy comparison on identical traces.
type Engine string

// Analyzer engines.
const (
	// EngineOptimistic replays through the paper's optimistic structures
	// (the default; bin count from Config.Bins).
	EngineOptimistic Engine = "optimistic"
	// EngineList is the traditional two-queue linked-list algorithm.
	EngineList Engine = "list"
	// EngineBin is the Flajslik-style binned baseline.
	EngineBin Engine = "bin"
	// EngineRank is the Dózsa-style per-source-rank baseline.
	EngineRank Engine = "rank"
	// EngineAdaptive is the Bayatpour-style dynamic baseline.
	EngineAdaptive Engine = "adaptive"
)

// Config parameterizes one analysis pass.
type Config struct {
	// Engine selects the matching strategy (default EngineOptimistic).
	Engine Engine
	// Bins per hash table; 1 emulates traditional list matching (the
	// Figure 7 baseline), the paper sweeps 1…256 in powers of two.
	Bins int
	// MaxReceives bounds outstanding posted receives per rank
	// (default 4096). Exceeding it aborts the analysis with an error, the
	// software-fallback condition of §III-B.
	MaxReceives int
	// Latency is the base send→arrival delay in trace-time seconds
	// (default 1e-4): long enough that a pre-posted receive beats the
	// matching send, short enough to stay within the iteration's window.
	Latency float64
	// RecordSeries captures a data-point entry at every progress operation
	// (§V-A: "this compilation of information forms a data-point entry,
	// encapsulating all progress achieved since the last recorded entry"),
	// exposed as Report.Series.
	RecordSeries bool
	// LatencySpread is the amplitude of the per-(sender, receiver) latency
	// variation (default 0.02 trace seconds). Real fabrics deliver
	// concurrent messages from different senders in effectively arbitrary
	// order; the spread is a pure function of the pair, so messages between
	// one pair keep their send order (per-QP FIFO, constraint C2). Set it
	// negative to disable.
	LatencySpread float64
	// Workers bounds the replay worker pool (default GOMAXPROCS). Every
	// width produces byte-identical reports; 1 still uses the sharded path
	// on a single goroutine.
	Workers int
	// Obs, when non-nil, receives the analyzer's counters (shards run,
	// events replayed) and — when the sink is tracing — per-shard and
	// per-phase events for Chrome trace export. A nil sink costs nothing.
	Obs *obs.Sink
}

func (c *Config) fill() {
	if c.MaxReceives == 0 {
		c.MaxReceives = 4096
	}
	if c.Latency == 0 {
		c.Latency = 1e-4
	}
	if c.LatencySpread == 0 {
		c.LatencySpread = 0.02
	}
	if c.LatencySpread < 0 {
		c.LatencySpread = 0
	}
}

// pairSpread returns a deterministic value in [0, 1) for a sender/receiver
// pair.
func pairSpread(sender, receiver int32) float64 {
	h := uint32(sender)*2654435761 ^ uint32(receiver)*40503
	h ^= h >> 13
	h *= 0x9e3779b1
	h ^= h >> 16
	return float64(h%4096) / 4096
}

// Report is the outcome of analyzing one application at one bin count.
type Report struct {
	App   string
	Procs int
	Bins  int

	// Mix is the Figure 6 call distribution.
	Mix trace.CallMix

	// Depth aggregates search-depth statistics over every rank — the
	// Figure 7 "queue depth": the number of queue elements examined per
	// matching attempt.
	Depth match.Stats

	// PostedAvg and PostedMax describe the live posted-receive queue
	// length sampled at progress operations.
	PostedAvg float64
	PostedMax int

	// EmptyBinPct is the mean percentage of empty bins sampled at progress
	// operations (§V-A).
	EmptyBinPct float64

	// TagsUsed is the number of distinct tags posted; UniqueKeys the
	// number of distinct (source, tag, comm) receive keys; WildcardRecvs
	// the number of receives using any wildcard.
	TagsUsed      int
	UniqueKeys    int
	WildcardRecvs int

	// Matched / Unexpected are totals across ranks.
	Matched    uint64
	Unexpected uint64

	// Series holds per-progress data points when Config.RecordSeries is
	// set, in trace-time order.
	Series []DataPoint
}

// DataPoint is one §V-A progress-time sample.
type DataPoint struct {
	Time       float64 // trace walltime of the progress call
	Rank       int32   // sampling rank
	Posted     int     // live posted receives at that rank
	Unexpected int     // stored unexpected messages at that rank
	EmptyBins  int     // empty bins across the rank's tables (optimistic/bin)
	TotalBins  int
}

// AvgDepth returns the Figure 7 scalar: the mean number of posted-receive
// entries examined per arriving message. Post-side (unexpected store)
// searches are reported separately in Depth — in pre-posting applications
// they are near zero and would only dilute the queue-depth signal.
func (r *Report) AvgDepth() float64 { return r.Depth.AvgArriveDepth() }

// MaxDepth returns the deepest single posted-receive search.
func (r *Report) MaxDepth() uint64 { return r.Depth.ArriveMaxDepth }

// step is one schedulable action derived from a trace event.
type step struct {
	time float64
	seq  int // stable tie-break: global emission order
	rank int32
	kind trace.OpKind
	peer int32
	tag  int32
	comm int32
}

// Analyze replays t through per-rank matching structures, sharded by
// destination rank over a bounded worker pool (see Schedule). The report
// is byte-identical to an unsharded replay of one global (time, seq)-sorted
// step list, the reference the equivalence tests compare against.
func Analyze(t *trace.Trace, cfg Config) (*Report, error) {
	return BuildSchedule(t, cfg).Analyze(cfg)
}

// Sweep analyzes t at each bin count and returns reports in order. The
// replay schedule is built once and every (bin count × shard) replay fans
// out over one shared worker pool; re-analyzing per bin count from scratch
// re-derives and re-sorts the identical step list.
func Sweep(t *trace.Trace, bins []int, cfg Config) ([]*Report, error) {
	return BuildSchedule(t, cfg).Sweep(bins, cfg)
}
