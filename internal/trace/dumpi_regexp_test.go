package trace

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// parseDUMPIRegexp is the regular-expression DUMPI parser that ParseDUMPI's
// byte-level scanner replaced, kept verbatim as the differential oracle:
// FuzzParseDUMPIMatchesRegexp requires both to return deeply equal events
// and identical error text on every input.

var (
	enterRe = regexp.MustCompile(`^(MPI_\w+) entering at walltime ([0-9.eE+-]+)`)
	fieldRe = regexp.MustCompile(`^\s*\w+ (\w+)=(\[?[-\w.]+\]?)`)
)

func parseDUMPIRegexp(r io.Reader, rank int32) (*RankTrace, error) {
	rt := &RankTrace{Rank: rank}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var cur *Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if m := enterRe.FindStringSubmatch(line); m != nil {
			wt, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad walltime %q", lineNo, m[2])
			}
			kind := Classify(m[1])
			rt.Events = append(rt.Events, Event{
				Kind: kind, Name: m[1], Walltime: wt,
				Peer: -1, Tag: 0, Comm: 0,
			})
			cur = &rt.Events[len(rt.Events)-1]
			if kind != OpSend && kind != OpRecv {
				cur = nil // arguments only matter for p2p
			}
			continue
		}
		if strings.Contains(line, " returning at walltime ") {
			cur = nil
			continue
		}
		if cur == nil {
			continue
		}
		if m := fieldRe.FindStringSubmatch(line); m != nil {
			key, raw := m[1], strings.Trim(m[2], "[]")
			switch key {
			case "dest", "source":
				cur.Peer = parseRankValue(raw)
			case "tag":
				cur.Tag = parseTagValue(raw)
			case "comm":
				if v, err := strconv.ParseInt(raw, 10, 32); err == nil {
					cur.Comm = int32(v)
				}
			case "count":
				if v, err := strconv.ParseInt(raw, 10, 32); err == nil {
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
