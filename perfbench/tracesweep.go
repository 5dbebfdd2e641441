package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/analyzer"
	"repro/internal/match"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// traceScale is the tracegen volume (percent of full iteration counts) of
// the trace-sweep inputs: 304,012 events over the 16 Table II apps.
const traceScale = 10

// figure7Bins are the bin counts Figure 7 reports.
var figure7Bins = []int{1, 32, 128}

// figure7Digest is the SHA-256 of every app's Figure 7 depth statistics at
// traceScale (see depthDigest). The depths depend only on the generated
// traces and the analyzer, never on the seed, so any change is a change in
// the analyzer's results.
const figure7Digest = "f655de2ca156236d084a62abc21a6e98565d626513c24e814dadceb2a6cdf2fa"

// traceApp is one Table II app as DUMPI text held in memory, with the
// reference 1-bin depths of the list engine.
type traceApp struct {
	name   string
	texts  [][]byte // one DUMPI text per rank
	bytes  int
	events int
	sends  int
	list   match.Stats // analyzer.EngineList at 1 bin
}

// makeTraceApps generates the 16 apps and writes each as DUMPI text. This
// is input generation, outside every timed figure.
func makeTraceApps() ([]*traceApp, error) {
	var apps []*traceApp
	for _, a := range tracegen.Apps() {
		tr := a.Generate(tracegen.Config{Scale: traceScale})
		app, err := dumpiApp(tr)
		if err != nil {
			return nil, err
		}
		ref, err := analyzer.Analyze(tr, analyzer.Config{Engine: analyzer.EngineList, Bins: 1})
		if err != nil {
			return nil, fmt.Errorf("%s: list reference: %w", a.Name, err)
		}
		app.list = ref.Depth
		apps = append(apps, app)
	}
	return apps, nil
}

// dumpiApp renders a trace as per-rank DUMPI text.
func dumpiApp(tr *trace.Trace) (*traceApp, error) {
	app := &traceApp{name: tr.App, events: tr.NumEvents()}
	for i := range tr.Ranks {
		var b bytes.Buffer
		if err := trace.WriteDUMPI(&b, &tr.Ranks[i]); err != nil {
			return nil, fmt.Errorf("%s rank %d: %w", tr.App, i, err)
		}
		app.texts = append(app.texts, b.Bytes())
		app.bytes += b.Len()
		for _, e := range tr.Ranks[i].Events {
			if e.Kind == trace.OpSend {
				app.sends++
			}
		}
	}
	return app, nil
}

// parseApp parses an app's DUMPI text back into a trace.
func parseApp(app *traceApp) (*trace.Trace, error) {
	tr := &trace.Trace{App: app.name, Ranks: make([]trace.RankTrace, len(app.texts))}
	for r, txt := range app.texts {
		rt, err := trace.ParseDUMPI(bytes.NewReader(txt), int32(r))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.name, err)
		}
		tr.Ranks[r] = *rt
	}
	return tr, nil
}

// traceSweep is the trace analyzer workload: each app's DUMPI text is
// parsed, scheduled and swept over the Figure 7 bins, in a seeded app
// order.
type traceSweep struct {
	apps  []*traceApp
	order []int
}

// sweepResult accumulates the measured passes.
type sweepResult struct {
	apps    int // app analyses completed
	events  int
	sends   int
	failed  int
	elapsed time.Duration
	passes  []passResult
	lines   []string // depth lines of the last pass, for the digest
}

// passResult is one pass over every app.
type passResult struct {
	elapsed time.Duration
	perApp  durations // time per app analysis
}

// analyze runs one app through parse, schedule and sweep, checking its
// 1-bin depths against the list engine. It returns the app's depth lines.
func (ts *traceSweep) analyze(app *traceApp, rec *recorder, seq int64) ([]string, bool, error) {
	root := rec.begin("bench.app", -1, seq)
	defer func() {
		rec.end(root)
		rec.flush()
	}()
	s := rec.begin("trace.parse", root, seq)
	tr, err := parseApp(app)
	rec.end(s)
	if err != nil {
		return nil, false, err
	}
	s = rec.begin("analyzer.schedule", root, seq)
	sc := analyzer.BuildSchedule(tr, analyzer.Config{})
	rec.end(s)
	s = rec.begin("analyzer.sweep", root, seq)
	reps, err := sc.Sweep(figure7Bins, analyzer.Config{})
	rec.end(s)
	if err != nil {
		return nil, false, fmt.Errorf("%s: sweep: %w", app.name, err)
	}
	return depthLines(app.name, reps), sameDepth(reps[0].Depth, app.list), nil
}

// sameDepth reports whether the optimistic engine at one bin searched
// exactly as deep as the list engine: with a single bin the two structures
// are the same queue.
func sameDepth(a, b match.Stats) bool {
	return a.ArriveSearches == b.ArriveSearches && a.ArriveTraversed == b.ArriveTraversed &&
		a.ArriveMaxDepth == b.ArriveMaxDepth && a.Matched == b.Matched
}

func depthLines(app string, reps []*analyzer.Report) []string {
	var out []string
	for _, r := range reps {
		d := r.Depth
		out = append(out, fmt.Sprintf("%s bins=%d searches=%d traversed=%d max=%d matched=%d unexpected=%d",
			app, r.Bins, d.ArriveSearches, d.ArriveTraversed, d.ArriveMaxDepth, r.Matched, r.Unexpected))
	}
	return out
}

// depthDigest hashes depth lines in sorted order, so the app order does
// not change it.
func depthDigest(lines []string) string {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	h := sha256.New()
	for _, l := range s {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// passEvents is the number of events one pass analyses.
func (ts *traceSweep) passEvents() int {
	n := 0
	for _, a := range ts.apps {
		n += a.events
	}
	return n
}

// passSends is the number of traced sends one pass analyses.
func (ts *traceSweep) passSends() int {
	n := 0
	for _, a := range ts.apps {
		n += a.sends
	}
	return n
}

// pass analyzes every app once in the seeded order.
func (ts *traceSweep) pass(res *sweepResult, rec *recorder) error {
	var lines []string
	var p passResult
	start := time.Now()
	events := 0 // this pass's
	for _, ai := range ts.order {
		app := ts.apps[ai]
		t0 := time.Now()
		l, ok, err := ts.analyze(app, rec, int64(res.apps))
		if err != nil {
			return err
		}
		p.perApp.add(time.Since(t0))
		if !ok {
			res.failed++
		}
		lines = append(lines, l...)
		res.apps++
		events += app.events
		res.sends += app.sends
	}
	p.elapsed = time.Since(start)
	res.elapsed += p.elapsed
	res.events += events
	res.passes = append(res.passes, p)
	if depthDigest(lines) != figure7Digest {
		res.failed++
	}
	res.lines = lines
	return nil
}

// run measures whole passes, starting another only while it is expected
// to end within dur; at least one pass runs.
func (ts *traceSweep) run(dur time.Duration, rec *recorder) (sweepResult, error) {
	var res sweepResult
	start := time.Now()
	for {
		t0 := time.Now()
		if err := ts.pass(&res, rec); err != nil {
			return res, err
		}
		if time.Since(start)+time.Since(t0) > dur {
			return res, nil
		}
	}
}
