package trace

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"
)

// benchCacheTrace synthesizes a cache-sized workload: 32 ranks × 8k events
// with the name repetition and field ranges real DUMPI traces show.
func benchCacheTrace() *Trace {
	names := []struct {
		kind OpKind
		name string
	}{
		{OpRecv, "MPI_Irecv"},
		{OpSend, "MPI_Isend"},
		{OpProgress, "MPI_Waitall"},
		{OpCollective, "MPI_Allreduce"},
	}
	t := &Trace{App: "cache-bench", Ranks: make([]RankTrace, 32)}
	for r := range t.Ranks {
		t.Ranks[r].Rank = int32(r)
		events := make([]Event, 8192)
		for i := range events {
			n := names[i%len(names)]
			events[i] = Event{
				Kind:     n.kind,
				Name:     n.name,
				Peer:     int32((r + i) % 32),
				Tag:      int32(i % 97),
				Comm:     int32(i % 3),
				Count:    int32(64 + i%1024),
				Walltime: 100 + float64(i)*1e-5,
			}
		}
		t.Ranks[r].Events = events
	}
	return t
}

// BenchmarkCacheLoad compares decoding the §V-A binary cache in the legacy
// reflection-driven gob format against the versioned varint codec.
func BenchmarkCacheLoad(b *testing.B) {
	tr := benchCacheTrace()

	var gobBuf bytes.Buffer
	if err := gob.NewEncoder(&gobBuf).Encode(tr); err != nil {
		b.Fatal(err)
	}
	var binBuf bytes.Buffer
	if err := EncodeBinary(&binBuf, tr); err != nil {
		b.Fatal(err)
	}

	b.Run(fmt.Sprintf("gob-%dKiB", gobBuf.Len()/1024), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := new(Trace)
			if err := gob.NewDecoder(bytes.NewReader(gobBuf.Bytes())).Decode(t); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("binary-%dKiB", binBuf.Len()/1024), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBinary(binBuf.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCacheSave(b *testing.B) {
	tr := benchCacheTrace()
	b.Run("gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := EncodeBinary(&buf, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParseDUMPI measures the DUMPI text parser on an 8192-event
// rank stream; bytes/s is the parse rate over the text.
func BenchmarkParseDUMPI(b *testing.B) {
	text := dumpiText(b, 8192)
	r := bytes.NewReader(text)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for b.Loop() {
		r.Reset(text)
		if _, err := ParseDUMPI(r, 0); err != nil {
			b.Fatal(err)
		}
	}
}
