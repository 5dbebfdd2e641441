package trace

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	cases := map[string]OpKind{
		"MPI_Isend":     OpSend,
		"MPI_Send":      OpSend,
		"MPI_Irecv":     OpRecv,
		"MPI_Recv":      OpRecv,
		"MPI_Waitall":   OpProgress,
		"MPI_Test":      OpProgress,
		"MPI_Allreduce": OpCollective,
		"MPI_Barrier":   OpCollective,
		"MPI_Get":       OpOneSided,
		"MPI_Put":       OpOneSided,
		"MPI_Init":      OpOther,
		"MPI_Finalize":  OpOther,
	}
	for name, want := range cases {
		if got := Classify(name); got != want {
			t.Errorf("Classify(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestOpKindString(t *testing.T) {
	names := map[OpKind]string{
		OpSend: "send", OpRecv: "recv", OpProgress: "progress",
		OpCollective: "collective", OpOneSided: "one-sided", OpOther: "other",
		OpKind(99): "OpKind(99)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d = %q", k, got)
		}
	}
}

const sampleDUMPI = `MPI_Init entering at walltime 100.0000001, cputime 0.01 seconds in thread 0.
int argc=1
MPI_Init returning at walltime 100.0000002, cputime 0.01 seconds in thread 0.
MPI_Irecv entering at walltime 100.1000000, cputime 0.02 seconds in thread 0.
int count=512
datatype datatype=2 (MPI_CHAR)
int source=3
int tag=77
comm comm=2 (MPI_COMM_WORLD)
request request=[12]
MPI_Irecv returning at walltime 100.1000100, cputime 0.02 seconds in thread 0.
MPI_Irecv entering at walltime 100.2000000, cputime 0.02 seconds in thread 0.
int count=16
datatype datatype=2 (MPI_CHAR)
int source=MPI_ANY_SOURCE
int tag=MPI_ANY_TAG
comm comm=0 (MPI_COMM_WORLD)
request request=[13]
MPI_Irecv returning at walltime 100.2000100, cputime 0.02 seconds in thread 0.
MPI_Isend entering at walltime 100.3000000, cputime 0.03 seconds in thread 0.
int count=512
datatype datatype=2 (MPI_CHAR)
int dest=5
int tag=77
comm comm=2 (MPI_COMM_WORLD)
request request=[14]
MPI_Isend returning at walltime 100.3000100, cputime 0.03 seconds in thread 0.
MPI_Waitall entering at walltime 100.4000000, cputime 0.04 seconds in thread 0.
int count=3
MPI_Waitall returning at walltime 100.4000100, cputime 0.04 seconds in thread 0.
MPI_Allreduce entering at walltime 100.5000000, cputime 0.05 seconds in thread 0.
int count=1
MPI_Allreduce returning at walltime 100.5000100, cputime 0.05 seconds in thread 0.
`

func TestParseDUMPI(t *testing.T) {
	rt, err := ParseDUMPI(strings.NewReader(sampleDUMPI), 4)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Rank != 4 {
		t.Fatalf("rank = %d", rt.Rank)
	}
	if len(rt.Events) != 6 {
		t.Fatalf("events = %d, want 6", len(rt.Events))
	}
	recv := rt.Events[1]
	if recv.Kind != OpRecv || recv.Peer != 3 || recv.Tag != 77 || recv.Comm != 2 || recv.Count != 512 {
		t.Fatalf("recv event = %+v", recv)
	}
	if recv.Walltime != 100.1 {
		t.Fatalf("walltime = %v", recv.Walltime)
	}
	wild := rt.Events[2]
	if wild.Peer != AnySource || wild.Tag != AnyTag {
		t.Fatalf("wildcard event = %+v", wild)
	}
	send := rt.Events[3]
	if send.Kind != OpSend || send.Peer != 5 || send.Tag != 77 {
		t.Fatalf("send event = %+v", send)
	}
	if rt.Events[4].Kind != OpProgress || rt.Events[5].Kind != OpCollective {
		t.Fatalf("tail events misclassified: %v %v", rt.Events[4].Kind, rt.Events[5].Kind)
	}
}

func TestParseDUMPIBadWalltime(t *testing.T) {
	_, err := ParseDUMPI(strings.NewReader("MPI_Send entering at walltime xx, cputime 0 seconds in thread 0.\n"), 0)
	// The regexp only matches numeric walltimes, so this line is simply not
	// an enter record; no events and no error.
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	orig := &RankTrace{Rank: 2, Events: []Event{
		{Kind: OpRecv, Name: "MPI_Irecv", Peer: AnySource, Tag: AnyTag, Comm: 1, Count: 64, Walltime: 1.5},
		{Kind: OpRecv, Name: "MPI_Irecv", Peer: 7, Tag: 3, Comm: 0, Count: 8, Walltime: 1.6},
		{Kind: OpSend, Name: "MPI_Isend", Peer: 7, Tag: 3, Comm: 0, Count: 8, Walltime: 1.7},
		{Kind: OpProgress, Name: "MPI_Waitall", Walltime: 1.8},
		{Kind: OpCollective, Name: "MPI_Allreduce", Walltime: 1.9},
	}}
	var buf bytes.Buffer
	if err := WriteDUMPI(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ParseDUMPI(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(orig.Events) {
		t.Fatalf("round trip: %d events, want %d", len(got.Events), len(orig.Events))
	}
	for i, e := range got.Events {
		o := orig.Events[i]
		if e.Kind != o.Kind || e.Name != o.Name {
			t.Fatalf("event %d: %+v != %+v", i, e, o)
		}
		if e.Kind == OpSend || e.Kind == OpRecv {
			if e.Peer != o.Peer || e.Tag != o.Tag || e.Comm != o.Comm || e.Count != o.Count {
				t.Fatalf("event %d fields: %+v != %+v", i, e, o)
			}
		}
	}
}

func TestMix(t *testing.T) {
	tr := &Trace{Ranks: []RankTrace{{Events: []Event{
		{Kind: OpSend}, {Kind: OpRecv}, {Kind: OpProgress},
		{Kind: OpCollective}, {Kind: OpOneSided}, {Kind: OpOther},
	}}}}
	m := tr.Mix()
	if m.P2P != 2 || m.Progress != 1 || m.Collective != 1 || m.OneSided != 1 || m.Other != 1 {
		t.Fatalf("mix = %+v", m)
	}
	if m.Total() != 6 || m.CommTotal() != 4 {
		t.Fatalf("totals: %d %d", m.Total(), m.CommTotal())
	}
	if tr.NumRanks() != 1 || tr.NumEvents() != 6 {
		t.Fatalf("counters: %d %d", tr.NumRanks(), tr.NumEvents())
	}
}

func writeTraceDir(t *testing.T, dir string) {
	t.Helper()
	tr := &Trace{App: "test", Ranks: []RankTrace{
		{Rank: 0, Events: []Event{
			{Kind: OpSend, Name: "MPI_Isend", Peer: 1, Tag: 5, Count: 4, Walltime: 1.0},
		}},
		{Rank: 1, Events: []Event{
			{Kind: OpRecv, Name: "MPI_Irecv", Peer: 0, Tag: 5, Count: 4, Walltime: 0.9},
			{Kind: OpProgress, Name: "MPI_Wait", Walltime: 1.1},
		}},
	}}
	if err := WriteDir(dir, tr); err != nil {
		t.Fatal(err)
	}
}

func TestParseDir(t *testing.T) {
	dir := t.TempDir()
	writeTraceDir(t, dir)
	tr, err := ParseDir(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRanks() != 2 {
		t.Fatalf("ranks = %d", tr.NumRanks())
	}
	if tr.Ranks[0].Rank != 0 || tr.Ranks[1].Rank != 1 {
		t.Fatal("rank order wrong")
	}
	if len(tr.Ranks[1].Events) != 2 {
		t.Fatalf("rank 1 events = %d", len(tr.Ranks[1].Events))
	}
}

func TestParseDirEmpty(t *testing.T) {
	if _, err := ParseDir(t.TempDir(), "x"); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := ParseDir("/nonexistent-path-zz", "x"); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeTraceDir(t, dir)

	// First load parses and drops a cache.
	tr, err := Load(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, cacheName)); err != nil {
		t.Fatal("cache file not written")
	}
	// Second load must come from the cache and be identical.
	tr2, err := Load(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	if tr2.NumEvents() != tr.NumEvents() || tr2.NumRanks() != tr.NumRanks() {
		t.Fatal("cached trace differs")
	}

	// Touching a rank file must invalidate the cache.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if rankFileRe.MatchString(e.Name()) {
			now := os.Getpid() // arbitrary; just rewrite to bump mtime
			_ = now
			path := filepath.Join(dir, e.Name())
			data, _ := os.ReadFile(path)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			// Ensure mtime strictly after cache by setting it forward.
			fi, _ := os.Stat(filepath.Join(dir, cacheName))
			bump := fi.ModTime().Add(time.Millisecond)
			_ = os.Chtimes(path, bump, bump)
			break
		}
	}
	if _, ok, _ := LoadCache(dir); ok {
		t.Fatal("stale cache accepted")
	}
	// Load re-parses and refreshes (wait out the mtime bump so the fresh
	// cache is newer than the touched rank file).
	time.Sleep(5 * time.Millisecond)
	if _, err := Load(dir, "test"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := LoadCache(dir); !ok {
		t.Fatal("cache not refreshed")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("BoxLib CNS/2"); got != "BoxLib_CNS_2" {
		t.Fatalf("sanitize = %q", got)
	}
}

// TestParseDUMPILineLimit pins the longest accepted line at maxLine-1
// bytes plus its newline: the scanner's buffer starts small and grows, but
// "token too long" must fire at the same length as with a buffer
// allocated at full size, as the regular-expression parser had.
func TestParseDUMPILineLimit(t *testing.T) {
	const head = "MPI_Irecv entering at walltime 1.0\n"
	for _, n := range []int{maxLine - 1, maxLine, maxLine + 1} {
		arg := "int tag=" + strings.Repeat("7", n-len("int tag="))
		input := head + arg + "\nint source=2\n"
		rt, err := ParseDUMPI(strings.NewReader(input), 0)
		_, wantErr := parseDUMPIRegexp(strings.NewReader(input), 0)
		if n < maxLine {
			if err != nil || wantErr != nil {
				t.Fatalf("line of %d bytes: err = %v, oracle err = %v", n, err, wantErr)
			}
			if e := rt.Events[0]; e.Peer != 2 || e.Tag != AnyTag {
				t.Fatalf("line of %d bytes: event = %+v", n, e)
			}
			continue
		}
		if !errors.Is(err, bufio.ErrTooLong) || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("line of %d bytes: err = %v, oracle err = %v", n, err, wantErr)
		}
	}
}

// dumpiText renders the first n events of the cache benchmark's rank 0
// (n <= 8192) as DUMPI text.
func dumpiText(tb testing.TB, n int) []byte {
	tb.Helper()
	rt := benchCacheTrace().Ranks[0]
	rt.Events = rt.Events[:n]
	var b bytes.Buffer
	if err := WriteDUMPI(&b, &rt); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// TestParseDUMPIAllocs bounds the parser's allocations: a stream costs the
// trace, the scanner and the growth of the event slice, never an
// allocation per line or per event.
func TestParseDUMPIAllocs(t *testing.T) {
	for _, n := range []int{1000, 8192} {
		text := dumpiText(t, n)
		r := bytes.NewReader(text)
		allocs := testing.AllocsPerRun(20, func() {
			r.Reset(text)
			if _, err := ParseDUMPI(r, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 32 {
			t.Errorf("%d events: %.0f allocations per parse, want <= 32", n, allocs)
		}
	}
}
