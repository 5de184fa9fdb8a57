package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// samples is one timing series in seconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

// quantile returns the q-quantile by linear interpolation between order
// statistics; 0 for an empty series.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// tail returns the highest of p50, p90, p99 and p99.9 that still has at
// least ten samples beyond it, with its label.
func (s samples) tail() (string, float64) {
	label, q := "p50", 0.5
	for _, c := range []struct {
		label string
		q     float64
	}{{"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}} {
		if float64(len(s))*(1-c.q) >= 10 {
			label, q = c.label, c.q
		}
	}
	return label, s.quantile(q)
}

// reportLine is one human-readable row of the run report: a metric under
// the name the workload documents, with its unit and sample count.
type reportLine struct {
	name  string
	value float64
	unit  string
	note  string
}

// report accumulates the human-readable rows printed before the result.
type report struct{ lines []reportLine }

func (r *report) add(name string, value float64, unit, note string) {
	r.lines = append(r.lines, reportLine{name, value, unit, note})
}

// timing adds a row for a series scaled to unit (1 for s, 1e3 for ms):
// its median, the sample count and the highest percentile with at least
// ten samples beyond it.
func (r *report) timing(name string, s samples, unit string, scale float64) {
	label, t := s.tail()
	r.add(name, s.median()*scale, unit, fmt.Sprintf("n=%d %s=%.4g%s", len(s), label, t*scale, unit))
}

func (r *report) print() {
	w := 0
	for _, l := range r.lines {
		if len(l.name) > w {
			w = len(l.name)
		}
	}
	for _, l := range r.lines {
		fmt.Println(strings.TrimRight(fmt.Sprintf("%-*s %14.6g %-6s %s", w, l.name, l.value, l.unit, l.note), " "))
	}
}
