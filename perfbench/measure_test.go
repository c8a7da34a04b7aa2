package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending, so percentile must sort
	}
	return v
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{20, 0.5, 10, true},  // 10 samples beyond rank 10
		{19, 0.5, 10, false}, // 9 beyond rank 10
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		q := percentile(seq(c.n), c.p)
		if q.Value != c.want || q.OK != c.ok || q.N != c.n {
			t.Errorf("percentile(n=%d, p=%v) = %+v, want value %v ok %v", c.n, c.p, q, c.want, c.ok)
		}
	}
	if q := percentile(nil, 0.5); q.OK || q.N != 0 {
		t.Errorf("empty: %+v", q)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}

func TestSelfTimesNested(t *testing.T) {
	// interval [0,100] ⊃ a [10,40] ⊃ b [20,30]; interval ⊃ c [50,90].
	spans := []span{
		{Name: "interval", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 1, Start: 20, End: 30},
		{Name: "c", Parent: 0, Start: 50, End: 90},
	}
	self := selfTimes(spans)
	want := []int64{30, 20, 10, 40}
	var sum int64
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %d, root lasted %d", sum, spans[0].dur())
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("b")
	tr.nextInterval(7)
	root := tr.begin("interval")
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	tr.end(a)
	c := tr.begin("c")
	tr.end(c)
	tr.end(root)
	parents := []int{-1, 0, 1, 0}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.Interval != 7 || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d", i, s, parents[i])
		}
		if (s.Alloc >= 0) != (s.Name == "b") {
			t.Errorf("span %s alloc sampling = %d", s.Name, s.Alloc)
		}
	}
	var self int64
	for _, v := range selfTimes(tr.spans) {
		self += v
	}
	if self != tr.spans[0].dur() {
		t.Errorf("self times %d do not account for the interval %d", self, tr.spans[0].dur())
	}

	var nilTr *tracer
	nilTr.end(nilTr.begin("x")) // a nil tracer records nothing

	defer func() {
		if recover() == nil {
			t.Error("closing an outer span first did not panic")
		}
	}()
	x := tr.begin("x")
	tr.begin("y")
	tr.end(x)
}

func TestErrorRateAccounting(t *testing.T) {
	ta := newTally()
	ta.attempt("interval", 100)
	ta.attempt("http", 50)
	ta.attempt("checkpoint", 0)
	ta.fail("interval", "decide panic")
	ta.fail("http", "status 500")
	ta.fail("http", "status 409")
	a, f := ta.totals()
	if a != 150 || f != 3 {
		t.Fatalf("totals = %d, %d; want 150, 3", a, f)
	}
	if r := ta.errorRate(); r != 3.0/150 {
		t.Errorf("error rate %v", r)
	}
	if len(ta.Failures) != 3 {
		t.Errorf("failures kept: %v", ta.Failures)
	}
	if r := newTally(); !math.IsNaN(r.errorRate()) {
		t.Error("error rate of no attempts should be undefined")
	}
}

func TestDigest(t *testing.T) {
	run := func(flip int) digest {
		var d digest
		for i := 0; i < 5; i++ {
			d.ints(i, 3)
			p99 := 1.5
			if i == flip {
				p99 = math.Nextafter(p99, 2) // one ulp
			}
			d.f64(p99)
			d.close()
		}
		return d
	}
	a, b := run(-1), run(-1)
	if firstMismatch(a.Intervals, b.Intervals) != -1 {
		t.Error("identical trajectories digest differently")
	}
	c := run(3)
	if i := firstMismatch(a.Intervals, c.Intervals); i != 3 {
		t.Errorf("first mismatch at %d, want 3", i)
	}
	if i := firstMismatch(a.Intervals, a.Intervals[:4]); i != 4 {
		t.Errorf("truncated trajectory mismatch at %d, want 4", i)
	}
}

func TestSumFamily(t *testing.T) {
	text := "# TYPE twigd_lifecycle_transitions_total counter\n" +
		"twigd_lifecycle_transitions_total{from=\"pending\",to=\"placed\"} 3\n" +
		"twigd_lifecycle_transitions_total{from=\"placed\",to=\"running\"} 2\n" +
		"twigd_lifecycle_transitions_total_other 100\n"
	if v := sumFamily(text, "twigd_lifecycle_transitions_total"); v != 5 {
		t.Errorf("sumFamily = %v, want 5", v)
	}
}

// TestTracedRunCarriesManifestMetrics checks that a --trace 1 run
// measures every per-layer metric of BENCHMARK.json whichever layers
// the workload's intervals run through.
func TestTracedRunCarriesManifestMetrics(t *testing.T) {
	shapes := map[string][][]string{
		"single": {{"core.prepare"}, {"core.finish"}, {"sim.step"}, {"ctrl.observe"}},
		"fleet":  {{"cluster.step", "core.prepare"}, {"cluster.step", "bdq.flush"}},
		"daemon": {{"daemon.step"}, {"api.status"}},
	}
	for shape, calls := range shapes {
		b := newBench(true, t.TempDir())
		for i := 0; i < 20; i++ {
			b.tr.nextInterval(i)
			root := b.tr.begin("interval")
			for _, path := range calls {
				var open []int
				for _, name := range path {
					open = append(open, b.tr.begin(name))
				}
				for j := len(open) - 1; j >= 0; j-- {
					b.tr.end(open[j])
				}
			}
			b.tr.end(root)
		}
		timed := childResult{Intervals: 20, LoopS: 1, IntervalMs: seq(20), Tally: newTally(),
			AllocBytes: 1 << 20, PeakRSSMB: 100}
		timed.Tally.attempt("interval", 20)
		traced := timed
		traced.Setup = setupTimes{QoSCalibrateS: 0.1, PowerFitS: 0.2, BuildS: 0.3}
		values, _ := tracedValues(collectLayers(b, traced), []childResult{timed}, 1.01)
		for _, d := range perLayer {
			if v, ok := values[d.Name]; !ok || !finite(v) {
				t.Errorf("%s: per-layer metric %s = %v, %v", shape, d.Name, v, ok)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables of this package in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d] = %+v, table has %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to workloads.go", w.Name)
		}
	}
}
