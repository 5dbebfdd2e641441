package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The DUMPI ASCII format (the output of dumpi2ascii, the SST DUMPI trace
// library's converter) records each call as an enter/return pair with the
// call arguments as indented key=value lines:
//
//	MPI_Irecv entering at walltime 8207.0103, cputime 0.0486 seconds in thread 0.
//	int count=512
//	datatype datatype=2 (MPI_CHAR)
//	int source=1
//	int tag=100
//	comm comm=2 (MPI_COMM_WORLD)
//	request request=[12]
//	MPI_Irecv returning at walltime 8207.0104, cputime 0.0487 seconds in thread 0.
//
// The parser extracts the fields matching needs (peer, tag, comm, count,
// walltime) and classifies every call name; symbolic wildcard values
// (MPI_ANY_SOURCE, MPI_ANY_TAG) are accepted alongside numeric ones.

// maxLine is the longest DUMPI line the parser accepts: a longer line
// fails the stream with bufio.ErrTooLong. The scanner starts with a small
// buffer and grows it on demand up to this size.
const maxLine = 1 << 20

var (
	mpiPrefix  = []byte("MPI_")
	enterMark  = []byte(" entering at walltime ")
	returnMark = []byte(" returning at walltime ")
)

// calls maps every name Classify knows to its kind and to nameKinds' own
// key, so events share one string per call name instead of each holding a
// slice of its whole entering line.
var calls = func() map[string]call {
	m := make(map[string]call, len(nameKinds))
	for name, kind := range nameKinds {
		m[name] = call{name: name, kind: kind}
	}
	return m
}()

type call struct {
	name string
	kind OpKind
}

// ParseDUMPI reads one rank's DUMPI ASCII stream.
//
// Lines are scanned as bytes. An entering line is one that matches
// `^(MPI_\w+) entering at walltime ([0-9.eE+-]+)`, a returning line one
// that contains " returning at walltime ", and an argument line one that
// matches `^\s*\w+ (\w+)=(\[?[-\w.]+\]?)` (brackets trimmed from the
// value), where \w and \s are their ASCII classes.
func ParseDUMPI(r io.Reader, rank int32) (*RankTrace, error) {
	rt := &RankTrace{Rank: rank}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)

	var others map[string]string // call names Classify does not know
	var cur *Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if name, wall, ok := enterLine(line); ok {
			wt, err := strconv.ParseFloat(string(wall), 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad walltime %q", lineNo, wall)
			}
			c, known := calls[string(name)]
			if !known {
				if c.name, known = others[string(name)]; !known {
					if others == nil {
						others = make(map[string]string)
					}
					c.name = string(name)
					others[c.name] = c.name
				}
				c.kind = Classify(c.name)
			}
			rt.Events = append(rt.Events, Event{
				Kind: c.kind, Name: c.name, Walltime: wt,
				Peer: -1, Tag: 0, Comm: 0,
			})
			cur = &rt.Events[len(rt.Events)-1]
			if c.kind != OpSend && c.kind != OpRecv {
				cur = nil // arguments only matter for p2p
			}
			continue
		}
		if bytes.Contains(line, returnMark) {
			cur = nil
			continue
		}
		if cur == nil {
			continue
		}
		if key, raw, ok := argLine(line); ok {
			switch string(key) {
			case "dest", "source":
				cur.Peer = parseRankValue(string(raw))
			case "tag":
				cur.Tag = parseTagValue(string(raw))
			case "comm":
				if v, err := strconv.ParseInt(string(raw), 10, 32); err == nil {
					cur.Comm = int32(v)
				}
			case "count":
				if v, err := strconv.ParseInt(string(raw), 10, 32); err == nil {
					cur.Count = int32(v)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: rank %d: %w", rank, err)
	}
	return rt, nil
}

// enterLine splits an entering line into its call name and walltime text.
func enterLine(line []byte) (name, wall []byte, ok bool) {
	if !bytes.HasPrefix(line, mpiPrefix) {
		return nil, nil, false
	}
	n := skip(line, len(mpiPrefix), isWord)
	if n == len(mpiPrefix) || !bytes.HasPrefix(line[n:], enterMark) {
		return nil, nil, false
	}
	w := n + len(enterMark)
	end := skip(line, w, isWalltime)
	if end == w {
		return nil, nil, false
	}
	return line[:n], line[w:end], true
}

// argLine splits an argument line ("int tag=77", "request request=[12]")
// into its key and its value without the brackets.
func argLine(line []byte) (key, value []byte, ok bool) {
	i := skip(line, 0, isSpace)
	j := skip(line, i, isWord)
	if j == i || j == len(line) || line[j] != ' ' {
		return nil, nil, false
	}
	k := skip(line, j+1, isWord)
	if k == j+1 || k == len(line) || line[k] != '=' {
		return nil, nil, false
	}
	v := k + 1
	if v < len(line) && line[v] == '[' {
		v++
	}
	end := skip(line, v, isValue)
	if end == v {
		return nil, nil, false
	}
	return line[j+1 : k], line[v:end], true
}

// skip returns the index of the first byte at or after i that is not in
// class.
func skip(b []byte, i int, class func(byte) bool) int {
	for i < len(b) && class(b[i]) {
		i++
	}
	return i
}

func isWord(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_'
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

func isWalltime(c byte) bool {
	return '0' <= c && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
}

func isValue(c byte) bool { return isWord(c) || c == '-' || c == '.' }

func parseRankValue(raw string) int32 {
	if raw == "MPI_ANY_SOURCE" {
		return AnySource
	}
	if v, err := strconv.ParseInt(raw, 10, 32); err == nil {
		return int32(v)
	}
	return AnySource
}

func parseTagValue(raw string) int32 {
	if raw == "MPI_ANY_TAG" {
		return AnyTag
	}
	if v, err := strconv.ParseInt(raw, 10, 32); err == nil {
		return int32(v)
	}
	return AnyTag
}

// rankFileRe matches DUMPI per-rank trace files ("…-0007.txt").
var rankFileRe = regexp.MustCompile(`-(\d+)\.txt$`)

// ParseDir loads every per-rank DUMPI text file in dir, in parallel per
// rank (§V-A: "the parsing is done in parallel in a per-rank fashion").
func ParseDir(dir, app string) (*Trace, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type rankFile struct {
		rank int32
		path string
	}
	var files []rankFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		m := rankFileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		r, _ := strconv.Atoi(m[1])
		files = append(files, rankFile{rank: int32(r), path: filepath.Join(dir, e.Name())})
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("trace: no DUMPI rank files (*-NNNN.txt) in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].rank < files[j].rank })

	t := &Trace{App: app, Ranks: make([]RankTrace, len(files))}
	errs := make([]error, len(files))
	var wg sync.WaitGroup
	for i, f := range files {
		wg.Add(1)
		go func(i int, f rankFile) {
			defer wg.Done()
			fh, err := os.Open(f.path)
			if err != nil {
				errs[i] = err
				return
			}
			defer fh.Close()
			rt, err := ParseDUMPI(fh, f.rank)
			if err != nil {
				errs[i] = err
				return
			}
			t.Ranks[i] = *rt
		}(i, f)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// WriteDUMPI emits a rank trace in DUMPI ASCII form, round-trippable
// through ParseDUMPI. Synthetic traces are written this way so the analyzer
// exercises the same parsing path real NERSC traces would.
func WriteDUMPI(w io.Writer, rt *RankTrace) error {
	bw := bufio.NewWriter(w)
	for _, e := range rt.Events {
		fmt.Fprintf(bw, "%s entering at walltime %.7f, cputime 0.0000000 seconds in thread 0.\n",
			e.Name, e.Walltime)
		switch e.Kind {
		case OpSend:
			fmt.Fprintf(bw, "int count=%d\n", e.Count)
			fmt.Fprintf(bw, "datatype datatype=2 (MPI_CHAR)\n")
			fmt.Fprintf(bw, "int dest=%d\n", e.Peer)
			fmt.Fprintf(bw, "int tag=%d\n", e.Tag)
			fmt.Fprintf(bw, "comm comm=%d (user)\n", e.Comm)
			fmt.Fprintf(bw, "request request=[0]\n")
		case OpRecv:
			fmt.Fprintf(bw, "int count=%d\n", e.Count)
			fmt.Fprintf(bw, "datatype datatype=2 (MPI_CHAR)\n")
			if e.Peer == AnySource {
				fmt.Fprintf(bw, "int source=MPI_ANY_SOURCE\n")
			} else {
				fmt.Fprintf(bw, "int source=%d\n", e.Peer)
			}
			if e.Tag == AnyTag {
				fmt.Fprintf(bw, "int tag=MPI_ANY_TAG\n")
			} else {
				fmt.Fprintf(bw, "int tag=%d\n", e.Tag)
			}
			fmt.Fprintf(bw, "comm comm=%d (user)\n", e.Comm)
			fmt.Fprintf(bw, "request request=[0]\n")
		}
		fmt.Fprintf(bw, "%s returning at walltime %.7f, cputime 0.0000000 seconds in thread 0.\n",
			e.Name, e.Walltime+1e-7)
	}
	return bw.Flush()
}

// WriteDir writes every rank of t as a DUMPI text file in dir, named
// dumpi-<app>-NNNN.txt.
func WriteDir(dir string, t *Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range t.Ranks {
		rt := &t.Ranks[i]
		name := fmt.Sprintf("dumpi-%s-%04d.txt", sanitize(t.App), rt.Rank)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := WriteDUMPI(f, rt); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}
