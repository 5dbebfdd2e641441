package main

import (
	"encoding/binary"
	"math/rand/v2"
	"sort"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// The benchmark derives every input from --seed: the payload bytes, the
// order of the ring's sizes and the trace apps' order. The program under
// test sees only these generated inputs.

// mix is splitmix64's finalizer: a cheap, well-spread hash used to stamp
// and check payloads without storing them.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stamp is the 8-byte header of message i of repetition rep sent by src.
func stamp(seed uint64, src, rep, i int) uint64 {
	return mix(seed ^ mix(uint64(src)<<48^uint64(rep)<<16^uint64(i)))
}

// stampBytes is the length of a stamp; every payload is at least this long.
const stampBytes = 8

func putStamp(buf []byte, v uint64) { binary.LittleEndian.PutUint64(buf, v) }

func getStamp(buf []byte) uint64 { return binary.LittleEndian.Uint64(buf) }

// msgSpec is one message of a workload's sequence: what a layer replay is
// fed to explain that workload.
type msgSpec struct {
	src, tag, size int
}

// seqLen is K, the messages per sequence (§VI).
const seqLen = 100

// eagerBytes is the small-message payload (Figure 8's 8 B).
const eagerBytes = 8

// eagerLimit is the largest eager payload; larger messages use rendezvous.
const eagerLimit = 1024

// pingpongStream is the Figure 8 sequence: K 8 B messages from rank 0,
// with distinct tags (no conflict) or all on tag 7 (conflict).
func pingpongStream(conflict bool) []msgSpec {
	s := make([]msgSpec, seqLen)
	for i := range s {
		s[i] = msgSpec{src: 0, tag: i, size: eagerBytes}
		if conflict {
			s[i].tag = conflictTag
		}
	}
	return s
}

// conflictTag is the one (source 0, tag 7) key of pingpong-conflict.
const conflictTag = 7

// ringStream is one ring sequence: a message with a distinct tag for each
// of sizes (see ringSizes), in a seeded order.
func ringStream(seed uint64, sizes []int) []msgSpec {
	s := make([]msgSpec, len(sizes))
	rng := rand.New(rand.NewPCG(seed, 0x72696e67))
	for i, p := range rng.Perm(len(sizes)) {
		s[i] = msgSpec{src: 0, tag: i, size: sizes[p]}
	}
	return s
}

// sizeShare is one payload size and the share of a traffic mix it takes.
type sizeShare struct {
	size  int
	share float64
}

// tableIISizeMix returns the point-to-point send sizes of the Table II
// apps trace-sweep generates (DUMPI counts of MPI_CHAR, so bytes), each
// app weighted equally and each app's sends by their number, in ascending
// size. Weighting apps rather than messages keeps the two apps with the
// most sends (BigFFT and MultiGrid) from deciding the mix alone.
func tableIISizeMix() []sizeShare {
	share := map[int]float64{}
	apps := 0
	for _, a := range tracegen.Apps() {
		tr := a.Generate(tracegen.Config{Scale: traceScale})
		count := map[int]int{}
		sends := 0
		for _, r := range tr.Ranks {
			for _, e := range r.Events {
				if e.Kind == trace.OpSend {
					count[int(e.Count)]++
					sends++
				}
			}
		}
		if sends == 0 {
			continue // collectives only
		}
		apps++
		for size, c := range count {
			share[size] += float64(c) / float64(sends)
		}
	}
	var mix []sizeShare
	for size, w := range share {
		mix = append(mix, sizeShare{size: size, share: w / float64(apps)})
	}
	sort.Slice(mix, func(i, j int) bool { return mix[i].size < mix[j].size })
	return mix
}

// ringSizes turns a size mix into the K sizes of one ring sequence: the
// size at each quantile (i+0.5)/K of the mix, in ascending order. Every
// seed sends the same sizes; only their order changes.
func ringSizes(mix []sizeShare) []int {
	sizes := make([]int, seqLen)
	j, cum := 0, mix[0].share
	for i := range sizes {
		q := (float64(i) + 0.5) / seqLen
		for q > cum && j < len(mix)-1 {
			j++
			cum += mix[j].share
		}
		sizes[i] = mix[j].size
	}
	return sizes
}

// tableIIRingCounts is ringSizes(tableIISizeMix()) written out as each
// size's number of messages in ascending size, so that a ring run does not
// generate the 16 Table II traces: their tens of MB of garbage would set the
// process's peak memory, at a height that depends on when the collector
// runs. TestRingSizesFollowTheTableIIMix derives it again from tracegen.
var tableIIRingCounts = []struct{ size, n int }{
	{64, 14}, {128, 8}, {256, 17}, {512, 21}, {1024, 16}, {2048, 10}, {4096, 14},
}

// tableIIRingSizes returns the K sizes of one ring sequence in ascending
// order, as ringSizes(tableIISizeMix()) gives them.
func tableIIRingSizes() []int {
	var sizes []int
	for _, c := range tableIIRingCounts {
		for i := 0; i < c.n; i++ {
			sizes = append(sizes, c.size)
		}
	}
	return sizes
}

// fillPattern fills buf with seeded bytes for the rendezvous payload of
// message i; the first 8 bytes are overwritten by the stamp per send.
func fillPattern(buf []byte, seed uint64, i int) {
	x := mix(seed ^ uint64(i)<<32)
	for j := 0; j < len(buf); j += 8 {
		x = mix(x)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(buf[j:], w[:])
	}
}

// appOrder returns a seeded permutation of n trace apps.
func appOrder(seed uint64, n int) []int {
	return rand.New(rand.NewPCG(seed, 0x61707073)).Perm(n)
}
