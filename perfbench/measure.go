package main

import (
	"hash/fnv"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it, so a p99 needs 1,000
// samples and a p50 needs 20.
const minBeyond = 10

// quantile is one reported percentile with the sample count behind it.
type quantile struct {
	Value float64
	N     int
	OK    bool // false: too few samples beyond the rank
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples.
// The rank is ceil(p·n); OK reports whether n − rank ≥ minBeyond.
func percentile(samples []float64, p float64) quantile {
	n := len(samples)
	q := quantile{N: n}
	if n == 0 {
		return q
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q.Value = s[rank-1]
	q.OK = n-rank >= minBeyond
	return q
}

// median is the plain median (used for repeated set-up timings, where
// the percentile rule does not apply).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// span is one traced call: a named layer boundary inside one interval.
// Parent indexes the enclosing span of the same interval (-1 for the
// interval's root). Times are nanoseconds since the tracer started;
// Alloc is heap bytes allocated inside the span (-1 when not sampled).
type span struct {
	Name     string `json:"name"`
	Interval int    `json:"interval"`
	Parent   int    `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Alloc    int64  `json:"alloc_b"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory. A nil tracer records nothing, so the
// untraced run calls the same code with no bookkeeping beyond a nil
// check.
type tracer struct {
	t0       time.Time
	interval int
	spans    []span
	open     []int // stack of open span indexes
	allocs   map[string]bool
	sample   []metrics.Sample
}

func newTracer(allocNames ...string) *tracer {
	tr := &tracer{t0: time.Now(), allocs: map[string]bool{}}
	for _, n := range allocNames {
		tr.allocs[n] = true
	}
	tr.sample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	return tr
}

func (tr *tracer) heapAllocs() int64 {
	metrics.Read(tr.sample)
	return int64(tr.sample[0].Value.Uint64())
}

// begin opens a span under the innermost open one and returns its
// index (-1 on a nil tracer).
func (tr *tracer) begin(name string) int {
	if tr == nil {
		return -1
	}
	parent := -1
	if len(tr.open) > 0 {
		parent = tr.open[len(tr.open)-1]
	}
	s := span{Name: name, Interval: tr.interval, Parent: parent, Alloc: -1}
	if tr.allocs[name] {
		s.Alloc = tr.heapAllocs()
	}
	s.Start = int64(time.Since(tr.t0))
	tr.spans = append(tr.spans, s)
	tr.open = append(tr.open, len(tr.spans)-1)
	return len(tr.spans) - 1
}

// end closes span i, which must be the innermost open span.
func (tr *tracer) end(i int) {
	if tr == nil {
		return
	}
	s := &tr.spans[i]
	s.End = int64(time.Since(tr.t0))
	if s.Alloc >= 0 {
		s.Alloc = tr.heapAllocs() - s.Alloc
	}
	if top := tr.open[len(tr.open)-1]; top != i {
		panic("perfbench: span " + s.Name + " closed out of order")
	}
	tr.open = tr.open[:len(tr.open)-1]
}

// nextInterval starts the spans of a new interval.
func (tr *tracer) nextInterval(t int) {
	if tr != nil {
		tr.interval = t
	}
}

// selfTimes returns each span's own time: its duration minus the
// durations of its direct children. The self times of one interval's
// spans sum to its root spans' durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// tally counts attempted and failed operations by kind; error_rate is
// failed ÷ attempted over every kind.
type tally struct {
	Attempted map[string]int `json:"attempted"`
	Failed    map[string]int `json:"failed"`
	// Failures keeps the first few failure messages for the report.
	Failures []string `json:"failures,omitempty"`
}

func newTally() tally {
	return tally{Attempted: map[string]int{}, Failed: map[string]int{}}
}

func (t *tally) attempt(kind string, n int) { t.Attempted[kind] += n }

func (t *tally) fail(kind, why string) {
	t.Failed[kind]++
	if len(t.Failures) < 20 {
		t.Failures = append(t.Failures, kind+": "+why)
	}
}

func (t *tally) totals() (attempted, failed int) {
	for _, n := range t.Attempted {
		attempted += n
	}
	for _, n := range t.Failed {
		failed += n
	}
	return
}

func (t *tally) errorRate() float64 {
	a, f := t.totals()
	if a == 0 {
		return math.NaN()
	}
	return float64(f) / float64(a)
}

// digest hashes a run's trajectory: each interval's words (assignment
// bits, P99 bits) are folded into one FNV-1a hash per interval, so two
// runs can be compared interval by interval.
type digest struct {
	cur       []byte
	Intervals []uint64 `json:"intervals"`
}

func (d *digest) word(v uint64) {
	for i := 0; i < 8; i++ {
		d.cur = append(d.cur, byte(v>>(8*i)))
	}
}

func (d *digest) f64(v float64) { d.word(math.Float64bits(v)) }

func (d *digest) ints(v ...int) {
	for _, x := range v {
		d.word(uint64(int64(x)))
	}
}

// close finishes the current interval's hash.
func (d *digest) close() {
	h := fnv.New64a()
	h.Write(d.cur)
	d.Intervals = append(d.Intervals, h.Sum64())
	d.cur = d.cur[:0]
}

// firstMismatch returns the first interval at which two trajectories
// differ, or -1 when they are identical (a length difference counts at
// the shorter length).
func firstMismatch(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}
