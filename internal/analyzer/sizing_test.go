package analyzer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// TestShardSizingMatchesReference replays every Table II app through
// Sweep (and Analyze at one bin count), whose matchers are sized to each
// shard's receives, and through the unsharded reference, whose matchers
// all get the full MaxReceives. The reports must be identical for every
// engine at the Figure 7 bin counts. The 512-descriptor cap keeps the
// reference's per-rank tables small; shards that post more than 512
// receives run at the cap.
func TestShardSizingMatchesReference(t *testing.T) {
	bins := []int{1, 32, 128}
	engines := []Engine{EngineOptimistic, EngineList, EngineBin, EngineRank, EngineAdaptive}
	for _, app := range tracegen.Apps() {
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			tr := app.Generate(tracegen.Config{Scale: 1})
			for _, eng := range engines {
				cfg := Config{Engine: eng, MaxReceives: 512, RecordSeries: true}
				swept, err := Sweep(tr, bins, cfg)
				if err != nil {
					t.Fatalf("%s sweep: %v", eng, err)
				}
				for i, b := range bins {
					c := cfg
					c.Bins = b
					label := fmt.Sprintf("%s/bins=%d", eng, b)
					ref, err := AnalyzeSerial(tr, c)
					if err != nil {
						t.Fatalf("%s reference: %v", label, err)
					}
					mustEqualReports(t, label+" sweep", ref, swept[i])
					if b != 32 {
						continue
					}
					one, err := Analyze(tr, c)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					mustEqualReports(t, label+" analyze", ref, one)
				}
			}
		})
	}
}

// windowTrace has rank 1 post total receives from rank 0, one per trace
// second, and rank 0 send each matching message window-1 seconds after
// its receive is posted (plus a margin above the delivery latency), so
// rank 1 holds exactly window receives outstanding at its peak.
func windowTrace(total, window int) *trace.Trace {
	t := &trace.Trace{App: "window", Ranks: []trace.RankTrace{{Rank: 0}, {Rank: 1}}}
	for i := 0; i < total; i++ {
		t.Ranks[1].Events = append(t.Ranks[1].Events, trace.Event{
			Kind: trace.OpRecv, Name: "MPI_Irecv", Peer: 0, Tag: int32(i), Walltime: float64(i),
		}, trace.Event{
			Kind: trace.OpProgress, Name: "MPI_Wait", Walltime: float64(i) + 0.1,
		})
		t.Ranks[0].Events = append(t.Ranks[0].Events, trace.Event{
			Kind: trace.OpSend, Name: "MPI_Isend", Peer: 1, Tag: int32(i), Walltime: float64(i+window-1) + 0.5,
		})
	}
	return t
}

// TestShardSizingKeepsTableLimit checks that the table-full error fires on
// exactly the traces it fired on before shard sizing: a rank holding
// MaxReceives+1 receives outstanding fails in Analyze and Sweep, while a
// rank that posts many times MaxReceives in total, never holding more
// than MaxReceives outstanding, succeeds with the reference's report.
func TestShardSizingKeepsTableLimit(t *testing.T) {
	const maxRecv = 8
	cfg := Config{Bins: 4, MaxReceives: maxRecv, RecordSeries: true}

	over := windowTrace(64, maxRecv+1)
	if _, err := Analyze(over, cfg); err == nil || !strings.Contains(err.Error(), "raise MaxReceives") {
		t.Fatalf("Analyze with %d outstanding: err = %v", maxRecv+1, err)
	}
	if _, err := Sweep(over, []int{1, 4}, cfg); err == nil || !strings.Contains(err.Error(), "raise MaxReceives") {
		t.Fatalf("Sweep with %d outstanding: err = %v", maxRecv+1, err)
	}

	fits := windowTrace(64, maxRecv)
	ref, err := AnalyzeSerial(fits, cfg)
	if err != nil {
		t.Fatalf("reference with %d outstanding: %v", maxRecv, err)
	}
	if ref.PostedMax != maxRecv || ref.Matched != 64 {
		t.Fatalf("window trace: posted max %d, matched %d; want %d, 64", ref.PostedMax, ref.Matched, maxRecv)
	}
	got, err := Analyze(fits, cfg)
	if err != nil {
		t.Fatalf("Analyze with %d outstanding: %v", maxRecv, err)
	}
	mustEqualReports(t, "window analyze", ref, got)
	swept, err := Sweep(fits, []int{4}, cfg)
	if err != nil {
		t.Fatalf("Sweep with %d outstanding: %v", maxRecv, err)
	}
	mustEqualReports(t, "window sweep", ref, swept[0])
}
