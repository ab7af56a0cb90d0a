package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"time"
)

// span is one server span read back from /trace.
type span struct {
	Trace, ID, Parent string
	Name              string
	Start, End        time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// fetchSpans reads the server's trace ring and returns the span events
// that ended inside win.
func fetchSpans(client *http.Client, httpAddr string, win window) ([]span, error) {
	resp, err := client.Get("http://" + httpAddr + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /trace: status %d", resp.StatusCode)
	}
	var out []span
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			TS     int64  `json:"ts_ns"`
			Type   string `json:"type"`
			Name   string `json:"name"`
			Trace  string `json:"trace"`
			Span   string `json:"span"`
			Parent string `json:"parent"`
			DurNS  int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("GET /trace: %w", err)
		}
		if ev.Type != "span" {
			continue
		}
		end := time.Unix(0, ev.TS)
		if !win.contains(end) {
			continue
		}
		out = append(out, span{Trace: ev.Trace, ID: ev.Span, Parent: ev.Parent, Name: ev.Name,
			Start: end.Add(-time.Duration(ev.DurNS)), End: end})
	}
	return out, sc.Err()
}

// selfTime returns, for every span, its duration minus the part of its
// interval that its direct children cover (overlapping children counted
// once, children clipped to the parent).
func selfTime(spans []span) map[string]time.Duration {
	children := make(map[string][]span)
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Trace+"/"+s.Parent] = append(children[s.Trace+"/"+s.Parent], s)
		}
	}
	out := make(map[string]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.Trace+"/"+s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		covered := time.Duration(0)
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := maxTime(k.Start, cur), minTime(k.End, s.End)
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cur = hi
			}
		}
		out[s.Trace+"/"+s.ID] = s.dur() - covered
	}
	return out
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// spanStats is the per-name view of one traced window.
type spanStats struct {
	dur  map[string][]time.Duration // durations by span name
	self map[string][]time.Duration // self times of root spans, by name
}

func analyzeSpans(spans []span) spanStats {
	st := spanStats{dur: make(map[string][]time.Duration), self: make(map[string][]time.Duration)}
	selfOf := selfTime(spans)
	for _, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], s.dur())
		if s.Parent == "" {
			st.self[s.Name] = append(st.self[s.Name], selfOf[s.Trace+"/"+s.ID])
		}
	}
	return st
}

// p50 returns the median duration in m over the given span names, or over
// all names when none are given (0 when there are no spans).
func (st spanStats) p50(m map[string][]time.Duration, names ...string) time.Duration {
	var all []time.Duration
	for name, ds := range m {
		if len(names) == 0 || slices.Contains(names, name) {
			all = append(all, ds...)
		}
	}
	return medianDur(all)
}
