package main

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRankWithSampleCount(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 50, 50},
		{90, 90, 10},
		{99, 99, 1},
		{100, 100, 0},
	} {
		v, beyond := percentile(append([]float64(nil), s...), c.p)
		if v != c.want || beyond != c.beyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, v, beyond, c.want, c.beyond)
		}
	}
	// 99 samples leave only 9 beyond the 90th percentile, fewer than minTail.
	if _, beyond := percentile(s[:99], 90); beyond != 9 || beyond >= minTail {
		t.Errorf("p90 of 99 samples has %d beyond, want 9", beyond)
	}
	if v, n := percentile(nil, 50); !math.IsNaN(v) || n != 0 {
		t.Errorf("percentile of no samples = %v, %d; want NaN, 0", v, n)
	}
}

func TestRatioStatesItsBase(t *testing.T) {
	r := ratio{12918, 200000}
	if got, want := r.String(), "0.0646 (12918 of 200000)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if v := (ratio{3, 0}).value(); v != 0 {
		t.Errorf("empty base gives %v, want 0", v)
	}
}

var sinkBytes [][]byte

func TestAllocMeterCountsEveryAllocation(t *testing.T) {
	const n = 1000
	var am allocMeter
	am.start()
	for i := 0; i < n; i++ {
		sinkBytes = append(sinkBytes[:0], make([]byte, 64+i))
	}
	am.stop()
	if am.mallocs < n {
		t.Fatalf("counted %d allocations, want at least %d", am.mallocs, n)
	}
	if got := am.perOp(n); got < 1 {
		t.Errorf("perOp = %v, want >= 1", got)
	}
	if got := am.perOp(0); got != 0 {
		t.Errorf("perOp(0) = %v, want 0", got)
	}
	// A second stretch adds to the first.
	before := am.mallocs
	am.start()
	sinkBytes = append(sinkBytes, make([]byte, 128))
	am.stop()
	if am.mallocs <= before {
		t.Errorf("second stretch not added: %d then %d", before, am.mallocs)
	}
}

func TestRecorderSelfTimeAndCoverage(t *testing.T) {
	r := newRecorder(0, time.Now())
	// root [0,100): children [10,40) and [50,90) cover 70 of 100.
	r.cur = []span{
		{name: "bench.seq", start: 0, end: 100, parent: -1},
		{name: "mpi.isend", start: 10, end: 40, parent: 0},
		{name: "mpi.waitall", start: 50, end: 90, parent: 0},
	}
	r.flush()
	st := mergeRecorders(r, nil)
	if st.selfNs["bench"] != 30 || st.selfNs["mpi"] != 70 || st.rootNs != 100 {
		t.Errorf("self %v root %d, want bench 30, mpi 70, root 100", st.selfNs, st.rootNs)
	}
	if got := st.medianCoverage(); got != 0.7 {
		t.Errorf("coverage %v, want 0.7", got)
	}
	if got := st.selfPct("mpi"); got != 70 {
		t.Errorf("selfPct(mpi) = %v, want 70", got)
	}
	if v, n := st.medianNs("mpi.isend"); v != 30 || n != 1 {
		t.Errorf("medianNs(mpi.isend) = %v over %d, want 30 over 1", v, n)
	}
	if len(r.cur) != 0 || len(r.kept) != 3 {
		t.Errorf("after flush: %d current, %d kept spans; want 0 and 3", len(r.cur), len(r.kept))
	}
	var nilRec *recorder // the untraced run records nothing
	nilRec.end(nilRec.begin("mpi.isend", -1, 0))
	nilRec.flush()
}

func TestResultLineShape(t *testing.T) {
	line := resultLine(true, 10, 0, []metric{
		{name: "setup_s", unit: "s", value: 0.8127},
		{name: "msg_rate", unit: "1/s", value: 312345.678901},
		{name: "payload_mb_s", unit: "MB/s", value: 1.5, shown: true},
	})
	var got struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	// A shown metric is printed for people, not put in the result line.
	if !got.Correct || got.Attempted != 10 || got.Failed != 0 || len(got.Metrics) != 2 {
		t.Fatalf("unexpected result %+v", got)
	}
	if m := got.Metrics["msg_rate"]; m.Value != 312345.678901 || m.Unit != "1/s" {
		t.Errorf("msg_rate lost digits or unit: %+v", m)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	sizes := tableIIRingSizes()
	a, b, c := ringStream(1, sizes), ringStream(1, sizes), ringStream(2, sizes)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different ring streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same ring stream")
	}
	multiset := func(s []msgSpec) map[int]int {
		m := map[int]int{}
		for _, x := range s {
			m[x.size]++
		}
		return m
	}
	if !reflect.DeepEqual(multiset(a), multiset(c)) {
		t.Errorf("size mix moved with the seed: %v vs %v", multiset(a), multiset(c))
	}
	if reflect.DeepEqual(appOrder(1, 16), appOrder(2, 16)) {
		t.Error("different seeds gave the same app order")
	}
	if stamp(1, 0, 5, 7) == stamp(2, 0, 5, 7) || stamp(1, 0, 5, 7) == stamp(1, 1, 5, 7) ||
		stamp(1, 0, 5, 7) == stamp(1, 0, 6, 7) || stamp(1, 0, 5, 7) == stamp(1, 0, 5, 8) {
		t.Error("stamps collide across seed, sender, repetition or index")
	}
}

func TestRingSizesFollowTheTableIIMix(t *testing.T) {
	mix := tableIISizeMix()
	var total float64
	for _, m := range mix {
		total += m.share
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1: %v", total, mix)
	}
	sizes := ringSizes(mix)
	// The ring runs on the written-out counts; they must be this mix.
	if written := tableIIRingSizes(); !reflect.DeepEqual(sizes, written) {
		t.Fatalf("tableIIRingCounts gives %v, the mix gives %v", written, sizes)
	}
	// Each size takes its share of the K messages, to within one message
	// at each boundary between sizes.
	got := map[int]int{}
	rendezvous := 0
	for _, s := range sizes {
		if s < stampBytes {
			t.Fatalf("size %d cannot hold a stamp", s)
		}
		got[s]++
		if s > eagerLimit {
			rendezvous++
		}
	}
	for _, m := range mix {
		if want := m.share * seqLen; math.Abs(float64(got[m.size])-want) > 1 {
			t.Errorf("size %d: %d messages, want %.1f", m.size, got[m.size], want)
		}
	}
	// Most messages are eager, and some take rendezvous.
	if rendezvous == 0 || rendezvous >= seqLen/2 {
		t.Errorf("%d of %d messages over the eager limit", rendezvous, seqLen)
	}
	// A two-size mix splits at its quantile.
	two := ringSizes([]sizeShare{{64, 0.25}, {4096, 0.75}})
	if two[24] != 64 || two[25] != 4096 {
		t.Errorf("quantile split at %d/%d, want 64/4096 around message 25", two[24], two[25])
	}
}

func TestRateIsDeliveredOverMeasuredTime(t *testing.T) {
	// A world of 30 sequences of 100 messages at 1 ms each, but one
	// sequence stalls for 91 ms: the world delivered 3000 messages in
	// 120 ms, 25000/s, and its rate says so.
	stalled := durations{}
	for i := 0; i < 30; i++ {
		d := time.Millisecond
		if i == 25 {
			d = 91 * time.Millisecond
		}
		stalled.add(d)
	}
	if got, _ := medianRate([]int{3000}, []time.Duration{120 * time.Millisecond}); got != 25000 {
		t.Errorf("one stalled world: rate %v, want 25000", got)
	}
	// Over five worlds the rate is the middle world's: one stalled world
	// does not decide the run, three do.
	elapsed := func(stalledWorlds int) []time.Duration {
		var e []time.Duration
		for i := 0; i < 5; i++ {
			d := 30 * time.Millisecond
			if i < stalledWorlds {
				d = 120 * time.Millisecond
			}
			e = append(e, d)
		}
		return e
	}
	counts := []int{3000, 3000, 3000, 3000, 3000}
	if got, rates := medianRate(counts, elapsed(1)); got != 100000 || rates[0] != 25000 {
		t.Errorf("one of five worlds stalled: rate %v (%v), want 100000 with the first at 25000", got, rates)
	}
	if got, _ := medianRate(counts, elapsed(3)); got != 25000 {
		t.Errorf("three of five worlds stalled: rate %v, want 25000", got)
	}
	// The tail is each world's own p90, median over worlds, with the
	// fewest samples a world had beyond it.
	plain := durations{}
	for i := 0; i < 30; i++ {
		plain.add(time.Duration(i+1) * time.Microsecond)
	}
	p90, minN, beyond := medianPercentile([]durations{plain, plain, stalled}, 90)
	if p90 != 27 || minN != 30 || beyond != 3 {
		t.Errorf("median p90 = %v µs, n >= %d, %d beyond; want 27, 30, 3", p90, minN, beyond)
	}
}
