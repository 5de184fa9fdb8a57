package main

import (
	"sort"
	"time"

	"stopwatchsim/internal/obs"
)

// span is one timed interval in the tree of a measured operation.
type span struct {
	name       string
	start, end int64 // unix nanoseconds
	parent     int   // index into tree.spans; -1 for the root
}

// tree is the span tree of one measured operation. Index 0 is the
// benchmark's root span around the whole operation; the benchmark adds a
// span around each call into a layer's public functions and grafts the
// spans the program itself recorded (pool, campaign, synthesis, HTTP).
type tree struct{ spans []span }

func newTree(start time.Time) *tree {
	return &tree{spans: []span{{name: "op", start: start.UnixNano(), end: start.UnixNano(), parent: -1}}}
}

// finish closes the root span.
func (t *tree) finish(end time.Time) { t.spans[0].end = end.UnixNano() }

func (t *tree) add(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{name: name, start: start.UnixNano(), end: end.UnixNano(), parent: parent})
	return len(t.spans) - 1
}

// begin opens a span under parent and returns its index; a nil tree (an
// untraced run) records nothing.
func (t *tree) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now().UnixNano()
	t.spans = append(t.spans, span{name: name, start: now, end: now, parent: parent})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tree) end(i int) {
	if t != nil && i >= 0 {
		t.spans[i].end = time.Now().UnixNano()
	}
}

// call runs f inside a span named name under parent and returns how long
// f took, traced or not.
func (t *tree) call(name string, parent int, f func() error) (time.Duration, error) {
	s := time.Now()
	err := f()
	e := time.Now()
	if t != nil {
		t.add(name, parent, s, e)
	}
	return e.Sub(s), err
}

// graft attaches spans recorded by the program. Spans whose parent was
// not recorded (trace roots, and anchors the program keeps implicit)
// hang under parent.
func (t *tree) graft(recs []obs.SpanRec, parent int) {
	base := len(t.spans)
	idx := make(map[string]int, len(recs))
	for i, r := range recs {
		idx[r.SpanID] = base + i
	}
	for _, r := range recs {
		p, ok := idx[r.ParentID]
		if !ok || r.ParentID == r.SpanID {
			p = parent
		}
		t.spans = append(t.spans, span{name: r.Name, start: r.StartNS, end: r.StartNS + r.DurNS, parent: p})
	}
}

// layers are the repository's packages a span can belong to, in report
// order.
var layers = []string{"config", "model", "nsa", "trace", "mc", "compose", "jobs", "store", "campaign", "synth", "http"}

// spanLayer maps span names — the benchmark's own and those the program
// records — to layers. Names missing here (the benchmark's root and
// grouping spans) count as unexplained time.
var spanLayer = map[string]string{
	"config.parse":     "config",
	obs.PhaseParse:     "config",
	obs.PhaseValidate:  "config",
	"model.build":      "model",
	obs.PhaseBuild:     "model",
	"nsa.interpret":    "nsa",
	obs.PhaseIndex:     "nsa",
	obs.PhaseInterpret: "nsa",
	"trace.check":      "trace",
	obs.PhaseCheck:     "trace",
	obs.PhaseExport:    "trace",
	"mc.explore":       "mc",
	"compose.run":      "compose",
	obs.PhasePlan:      "compose",
	obs.PhaseCompose:   "compose",
	"jobs.submit":      "jobs",
	"jobs.queue":       "jobs",
	"jobs.run":         "jobs",
	"store.get":        "store",
	"store.put":        "store",
	"campaign":         "campaign",
	"campaign.point":   "campaign",
	"synth":            "synth",
	"synth.point":      "synth",
	"http.client":      "http",
	"http.ingress":     "http",
}

// accounting splits the wall time of traced operations across layers.
type accounting struct {
	ops  int
	wall float64            // summed root durations, seconds
	self map[string]float64 // layer → attributed seconds
	durs map[string]samples // span name → durations
}

func newAccounting() *accounting {
	return &accounting{self: map[string]float64{}, durs: map[string]samples{}}
}

// addTree attributes the root's interval to layers. At every instant the
// time goes to the active spans with no active descendant, split evenly
// when several run concurrently, so each operation's time is accounted
// for exactly once: a layer's self time is what its spans spent outside
// their children, and time covered only by the root is unexplained.
// Spans are clipped to the root's interval.
func (a *accounting) addTree(t *tree) {
	root := t.spans[0]
	a.ops++
	a.wall += float64(root.end-root.start) / 1e9
	type event struct {
		at    int64
		span  int
		start bool
	}
	evs := make([]event, 0, 2*len(t.spans))
	for i, s := range t.spans {
		a.durs[s.name] = append(a.durs[s.name], float64(s.end-s.start)/1e9)
		st, en := max(s.start, root.start), min(s.end, root.end)
		if en <= st {
			continue
		}
		evs = append(evs, event{st, i, true}, event{en, i, false})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return !evs[i].start && evs[j].start // ends first
	})
	activeDesc := make([]int, len(t.spans))
	active := map[int]bool{}
	var leaves []int
	for k, ev := range evs {
		if k > 0 && ev.at > evs[k-1].at && len(active) > 0 {
			leaves = leaves[:0]
			for i := range active {
				if activeDesc[i] == 0 {
					leaves = append(leaves, i)
				}
			}
			share := float64(ev.at-evs[k-1].at) / 1e9 / float64(len(leaves))
			for _, i := range leaves {
				if l, ok := spanLayer[t.spans[i].name]; ok {
					a.self[l] += share
				}
			}
		}
		d := 1
		if ev.start {
			active[ev.span] = true
		} else {
			delete(active, ev.span)
			d = -1
		}
		for p := t.spans[ev.span].parent; p >= 0; p = t.spans[p].parent {
			activeDesc[p] += d
		}
	}
}

// perOp returns a summed quantity per traced operation.
func (a *accounting) perOp(v float64) float64 {
	if a.ops == 0 {
		return 0
	}
	return v / float64(a.ops)
}

// explained returns the attributed seconds summed over all layers.
func (a *accounting) explained() float64 {
	t := 0.0
	for _, l := range layers {
		t += a.self[l]
	}
	return t
}
