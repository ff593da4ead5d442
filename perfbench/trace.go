package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	socialmatch "repro"
	"repro/internal/mapreduce"
)

// span is one timed layer call, in microseconds since the tracer's
// origin.
type span struct {
	name       string
	start, end float64
	parent     int // index into tracer.spans, -1 for a pass root
	pass       int
	derived    bool // laid out from the engine's Stats walls, not timed here
	args       map[string]any
}

// counter is one sample of a counter series (Chrome "C" event).
type counter struct {
	name string
	ts   float64
	pass int
	args map[string]float64
}

// tracer records spans around the calls the benchmark makes into each
// layer, kept in memory and written out once the run ends. A nil tracer
// records nothing, which is how untraced passes run.
type tracer struct {
	origin   time.Time
	pass     int
	spans    []span
	counters []counter
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.origin).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id; parent is -1 for a root.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), end: -1, parent: parent, pass: t.pass})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = t.now()
}

// engineSpans adds, under span parent, one derived child span per
// MapReduce phase of every job in stats (map, shuffle, reduce), laid end
// to end from the parent's start. The engine reports phase walls, not
// their start times, so the placement is approximate; durations are
// exact, which is what self time needs.
func (t *tracer) engineSpans(parent int, job string, stats []mapreduce.Stats) {
	if t == nil {
		return
	}
	cursor := t.spans[parent].start
	for r, s := range stats {
		for _, ph := range []struct {
			name string
			wall time.Duration
		}{{"mapreduce.map", s.MapWall}, {"mapreduce.shuffle", s.ShuffleWall}, {"mapreduce.reduce", s.ReduceWall}} {
			d := float64(ph.wall.Nanoseconds()) / 1e3
			t.spans = append(t.spans, span{
				name: ph.name + " " + job, start: cursor, end: cursor + d, parent: parent, pass: t.pass, derived: true,
				args: map[string]any{"round": r},
			})
			cursor += d
		}
	}
}

// roundCounters adds the per-round engine walls and the matching value
// after each round as counter series, placed at the derived round ends.
func (t *tracer) roundCounters(parent int, algo string, res *socialmatch.Result) {
	if t == nil {
		return
	}
	ts := t.spans[parent].start
	for r, s := range res.RoundStats {
		ts += float64((s.MapWall + s.ShuffleWall + s.ReduceWall).Nanoseconds()) / 1e3
		t.counters = append(t.counters, counter{
			name: algo + ".round_wall_ms", ts: ts, pass: t.pass,
			args: map[string]float64{
				"map":     s.MapWall.Seconds() * 1e3,
				"shuffle": s.ShuffleWall.Seconds() * 1e3,
				"reduce":  s.ReduceWall.Seconds() * 1e3,
			},
		})
		if r < len(res.ValueTrace) {
			t.counters = append(t.counters, counter{
				name: algo + ".value", ts: ts, pass: t.pass,
				args: map[string]float64{"value": res.ValueTrace[r]},
			})
		}
	}
}

// traceEvent is one Chrome trace-event record, the format Perfetto and
// chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeJSON writes every span and counter as trace events, one thread
// per traced pass.
func (t *tracer) writeJSON(w io.Writer) error {
	events := make([]traceEvent, 0, len(t.spans)+len(t.counters))
	for i, s := range t.spans {
		args := map[string]any{"id": i, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		if s.derived {
			args["derived"] = true
		}
		events = append(events, traceEvent{Name: s.name, Ph: "X", Ts: s.start, Dur: s.end - s.start, Pid: 1, Tid: s.pass, Args: args})
	}
	for _, c := range t.counters {
		args := make(map[string]any, len(c.args))
		for k, v := range c.args {
			args[k] = v
		}
		events = append(events, traceEvent{Name: c.name, Ph: "C", Ts: c.ts, Pid: 1, Tid: c.pass, Args: args})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// layerTime is the total and self time of all spans sharing a name.
type layerTime struct {
	name        string
	total, self float64 // microseconds
}

// selfTimes returns, per span name, the summed duration and self time:
// a span's duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() []layerTime {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	by := make(map[string]*layerTime)
	var order []string
	for i, s := range t.spans {
		lt := by[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			by[s.name] = lt
			order = append(order, s.name)
		}
		dur := s.end - s.start
		lt.total += dur
		lt.self += dur - covered(s, t.spans, children[i])
	}
	out := make([]layerTime, len(order))
	for i, n := range order {
		out[i] = *by[n]
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, spans []span, kids []int) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, hi float64
	hi = parent.start
	for _, v := range ivs {
		if v.b <= hi {
			continue
		}
		sum += v.b - max(v.a, hi)
		hi = v.b
	}
	return sum
}

// printSummary writes the per-layer self-time table, averaged per traced
// pass.
func (t *tracer) printSummary(w io.Writer, passes int) {
	fmt.Fprintf(w, "per-layer time per traced pass (%d passes; derived = from engine Stats walls):\n", passes)
	fmt.Fprintf(w, "  %-34s %12s %12s\n", "span", "total ms", "self ms")
	for _, lt := range t.selfTimes() {
		fmt.Fprintf(w, "  %-34s %12.2f %12.2f\n", lt.name, lt.total/1e3/float64(passes), lt.self/1e3/float64(passes))
	}
}
