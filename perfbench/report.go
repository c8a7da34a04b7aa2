package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"github.com/twig-sched/twig/internal/mat"
)

// metricDef names one reported metric. For per-layer metrics, Moves is
// the end-to-end metric it is predicted to move and On the workloads
// where the move should show (and where it should not), so a later
// performance claim can be checked against the prediction.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
	On     string
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run of every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "intervals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "interval_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "interval_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "qos_guarantee_pct", Unit: "%", Better: "higher"},
	{Name: "energy_kj", Unit: "kJ", Better: "lower"},
}

// perLayer are the per-layer metrics of BENCHMARK.json: the metrics a
// --trace 1 run measures on every workload, so each run's result line
// carries all of them. Three come from the untraced replicas of the same
// invocation: allocation and peak memory, which swing 10–20% from seed
// to seed on fleet-chaos (the chaos schedule decides how many managers
// are rebuilt and snapshotted) and so cannot carry a bound, and the
// error rate, which is usually zero.
var perLayer = []metricDef{
	{"alloc_kb_per_interval", "KiB", "lower", "- (end to end, ungated)", "all (untraced run)"},
	{"peak_rss_mb", "MiB", "lower", "- (end to end, ungated)", "all (untraced run)"},
	{"error_rate", "ratio", "lower", "-", "all (untraced run)"},
	{"experiments.qos_calibrate_s", "s", "lower", "setup_s", "mostly coloc-memcached / little solo-learn"},
	{"experiments.power_fit_s", "s", "lower", "setup_s", "mostly coloc-memcached / little solo-learn"},
	{"experiments.build_s", "s", "lower", "setup_s", "all"},
	{"runtime.gc_cycles", "count", "lower", "interval_p99_ms", "mostly coloc-memcached, fleet-chaos"},
	{"runtime.gc_pause_ms", "ms", "lower", "interval_p99_ms", "mostly coloc-memcached, fleet-chaos"},
	{"trace.glue_share", "ratio", "lower", "- (interval time outside every named layer)", "all"},
	{"trace.overhead_pct", "%", "lower", "- (traced vs untraced loop wall time)", "all"},
}

// layerDetail are the per-layer metrics of the layers that run on only
// some workloads. They are reported on standard error and in the run's
// report file, each only where its layer runs and, for a percentile,
// only with enough samples; the result line cannot carry them, since
// it must hold the same metrics on every workload. decide_* and api_*
// come from the untraced replicas.
var layerDetail = []metricDef{
	{"decide_p50_ms", "ms", "lower", "interval_p50_ms", "solo-learn, coloc-memcached, fleet-chaos (untraced run)"},
	{"decide_p99_ms", "ms", "lower", "interval_p99_ms", "solo-learn, coloc-memcached, fleet-chaos (untraced run)"},
	{"api_p50_ms", "ms", "lower", "intervals_per_s", "daemon-churn (untraced run)"},
	{"api_p99_ms", "ms", "lower", "intervals_per_s", "daemon-churn (untraced run)"},
	{"sim.step_ms_p50", "ms", "lower", "intervals_per_s, interval_p50_ms; never decide_*", "mostly coloc-memcached / little solo-learn"},
	{"sim.step_ms_p99", "ms", "lower", "interval_p99_ms", "mostly coloc-memcached / little solo-learn"},
	{"sim.share", "ratio", "lower", "intervals_per_s", "mostly coloc-memcached / little solo-learn"},
	{"sim.requests_per_interval", "count", "higher", "- (workload size)", "solo-learn, coloc-memcached, daemon-churn"},
	{"sim.alloc_kb_per_call", "KiB", "lower", "alloc_kb_per_interval", "mostly coloc-memcached / little solo-learn"},
	{"sim.conservation_breaks", "count", "lower", "- (correctness count, not gated)", "coloc-memcached, daemon-churn"},
	{"ctrl.observe_us_p50", "us", "lower", "interval_p50_ms, expected ~0 (a control)", "solo-learn, coloc-memcached"},
	{"ctrl.share", "ratio", "lower", "interval_p50_ms, expected ~0 (a control)", "solo-learn, coloc-memcached"},
	{"core.prepare_ms_p50", "ms", "lower", "decide_p50_ms, intervals_per_s", "mostly solo-learn / little coloc-memcached"},
	{"core.prepare_ms_p99", "ms", "lower", "decide_p99_ms", "mostly solo-learn / little coloc-memcached"},
	{"core.finish_us_p50", "us", "lower", "decide_p50_ms", "mostly solo-learn / little coloc-memcached"},
	{"core.share", "ratio", "lower", "intervals_per_s", "mostly solo-learn / little coloc-memcached"},
	{"core.alloc_kb_per_call", "KiB", "lower", "alloc_kb_per_interval", "mostly solo-learn / little coloc-memcached"},
	{"bdq.flush_ms_p50", "ms", "lower", "decide_p50_ms, intervals_per_s", "fleet-chaos only"},
	{"bdq.flush_ms_p99", "ms", "lower", "decide_p99_ms", "fleet-chaos only"},
	{"bdq.flush_share", "ratio", "lower", "intervals_per_s", "fleet-chaos only"},
	{"bdq.members_per_flush", "count", "higher", "decide_p50_ms", "fleet-chaos only"},
	{"bdq.train_steps_per_interval", "count", "higher", "decide_p50_ms", "fleet-chaos only"},
	{"bdq.replay_len", "count", "lower", "peak_rss_mb", "fleet-chaos only"},
	{"cluster.step_self_ms_p50", "ms", "lower", "interval_p50_ms, alloc_kb_per_interval", "fleet-chaos"},
	{"cluster.step_self_ms_p99", "ms", "lower", "interval_p99_ms", "fleet-chaos"},
	{"cluster.snapshot_interval_ms_p50", "ms", "lower", "interval_p99_ms, peak_rss_mb", "fleet-chaos"},
	{"cluster.plain_interval_ms_p50", "ms", "lower", "interval_p50_ms", "fleet-chaos"},
	{"cluster.warm_restores", "count", "higher", "qos_guarantee_pct", "fleet-chaos"},
	{"cluster.cold_restores", "count", "lower", "qos_guarantee_pct", "fleet-chaos"},
	{"cluster.migrations", "count", "lower", "interval_p99_ms", "fleet-chaos"},
	{"cluster.lease_expiries", "count", "lower", "qos_guarantee_pct", "fleet-chaos"},
	{"cluster.dark_replica_intervals", "count", "lower", "qos_guarantee_pct", "fleet-chaos"},
	{"checkpoint.bytes", "B", "lower", "interval_p99_ms, alloc_kb_per_interval", "daemon-churn"},
	{"checkpoint.cadence_interval_ms_p50", "ms", "lower", "interval_p99_ms", "daemon-churn"},
	{"checkpoint.writes", "count", "higher", "- (cadence count)", "daemon-churn"},
	{"checkpoint.dropped", "count", "lower", "- (latest-wins drops)", "daemon-churn"},
	{"checkpoint.failed", "count", "lower", "error_rate", "daemon-churn"},
	{"daemon.step_ms_p50", "ms", "lower", "interval_p50_ms", "daemon-churn"},
	{"daemon.step_ms_p99", "ms", "lower", "interval_p99_ms", "daemon-churn"},
	{"daemon.rebuild_interval_ms", "ms", "lower", "interval_p99_ms", "daemon-churn"},
	{"daemon.api_status_ms_p50", "ms", "lower", "api_p50_ms", "daemon-churn"},
	{"daemon.api_metrics_ms_p50", "ms", "lower", "api_p99_ms", "daemon-churn"},
	{"daemon.api_admit_ms_p50", "ms", "lower", "api_p99_ms", "daemon-churn"},
	{"daemon.api_delete_ms_p50", "ms", "lower", "api_p99_ms", "daemon-churn"},
	{"daemon.lifecycle_transitions", "count", "higher", "- (churn count)", "daemon-churn"},
	{"metrics.scrape_bytes", "B", "lower", "api_p99_ms", "daemon-churn"},
}

// layerData is a traced run's raw per-layer record, kept raw so the
// replicas of one run can be pooled before percentiles are taken.
// Series holds, per span name, every duration (ms), every self time
// ("<name>.self") and the durations in intervals with and without each
// mark ("<name>@<mark>", "<name>@!<mark>"). Sums holds self and alloc
// totals per span name ("self:", "alloc:", "calls:"), the summed
// interval time ("interval.total") and the workload's counters.
type layerData struct {
	Series map[string][]float64 `json:"series"`
	Sums   map[string]float64   `json:"sums"`
}

func (ld *layerData) add(o layerData) {
	if ld.Series == nil {
		ld.Series, ld.Sums = map[string][]float64{}, map[string]float64{}
	}
	for k, v := range o.Series {
		ld.Series[k] = append(ld.Series[k], v...)
	}
	for k, v := range o.Sums {
		ld.Sums[k] += v
	}
}

// collectLayers turns a traced child's spans and counters into its
// layerData.
func collectLayers(b *bench, res childResult) layerData {
	ld := layerData{Series: map[string][]float64{}, Sums: map[string]float64{}}
	self := selfTimes(b.tr.spans)
	for i, s := range b.tr.spans {
		d := float64(s.dur()) / 1e6
		ld.Series[s.Name] = append(ld.Series[s.Name], d)
		ld.Series[s.Name+".self"] = append(ld.Series[s.Name+".self"], float64(self[i])/1e6)
		for kind, ts := range b.marks {
			key := s.Name + "@" + kind
			if !ts[s.Interval] {
				key = s.Name + "@!" + kind
			}
			ld.Series[key] = append(ld.Series[key], d)
		}
		ld.Sums["self:"+s.Name] += float64(self[i]) / 1e6
		ld.Sums["calls:"+s.Name]++
		if s.Alloc > 0 {
			ld.Sums["alloc:"+s.Name] += float64(s.Alloc)
		}
		if s.Parent < 0 {
			ld.Sums["interval.total"] += d
		}
	}
	for k, v := range b.counts {
		ld.Sums[k] = v
	}
	ld.Sums["intervals"] = float64(res.Intervals)
	ld.Sums["replicas"] = 1
	ld.Sums["experiments.qos_calibrate_s"] = res.Setup.QoSCalibrateS
	ld.Sums["experiments.power_fit_s"] = res.Setup.PowerFitS
	ld.Sums["experiments.build_s"] = res.Setup.BuildS
	ld.Sums["runtime.gc_cycles"] = float64(res.GCCycles)
	ld.Sums["runtime.gc_pause_ms"] = res.GCPauseMs
	return ld
}

// layerMetrics computes the per-layer split of a run's pooled traced
// replicas. Percentiles that fail the percentile rule are skipped and
// named in the second return value. Counters are totals over the run,
// except sizes and set-up times, which are means over replicas.
func layerMetrics(ld layerData) (map[string]float64, []string) {
	out := map[string]float64{}
	var skipped []string
	series, sums := ld.Series, ld.Sums
	pct := func(name, key string, p, scale float64) {
		q := percentile(series[key], p)
		if !q.OK {
			skipped = append(skipped, fmt.Sprintf("%s (n=%d)", name, q.N))
			return
		}
		out[name] = q.Value * scale
	}
	share := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			s += sums["self:"+n]
		}
		return s / sums["interval.total"]
	}
	perCallKB := func(names ...string) float64 {
		var a float64
		for _, n := range names {
			a += sums["alloc:"+n]
		}
		return a / 1024 / sums["calls:"+names[0]]
	}
	copyKeys := func(div float64, keys ...string) {
		for _, k := range keys {
			out[k] = sums[k] / div
		}
	}
	n, reps := sums["intervals"], sums["replicas"]

	if sums["calls:sim.step"] > 0 {
		pct("sim.step_ms_p50", "sim.step", 0.5, 1)
		pct("sim.step_ms_p99", "sim.step", 0.99, 1)
		out["sim.share"] = share("sim.step")
		out["sim.alloc_kb_per_call"] = perCallKB("sim.step")
	}
	if _, ok := sums["sim.requests"]; ok {
		out["sim.requests_per_interval"] = sums["sim.requests"] / n
		copyKeys(1, "sim.conservation_breaks")
	}
	if sums["calls:ctrl.observe"] > 0 {
		pct("ctrl.observe_us_p50", "ctrl.observe", 0.5, 1000)
		out["ctrl.share"] = share("ctrl.observe")
	}
	if sums["calls:core.prepare"] > 0 {
		pct("core.prepare_ms_p50", "core.prepare", 0.5, 1)
		pct("core.prepare_ms_p99", "core.prepare", 0.99, 1)
		pct("core.finish_us_p50", "core.finish", 0.5, 1000)
		out["core.share"] = share("core.prepare", "core.finish")
		out["core.alloc_kb_per_call"] = perCallKB("core.prepare", "core.finish")
	}
	if sums["calls:bdq.flush"] > 0 {
		pct("bdq.flush_ms_p50", "bdq.flush", 0.5, 1)
		pct("bdq.flush_ms_p99", "bdq.flush", 0.99, 1)
		out["bdq.flush_share"] = share("bdq.flush")
		out["bdq.members_per_flush"] = sums["bdq.members"] / sums["bdq.flushes"]
		out["bdq.train_steps_per_interval"] = sums["bdq.train_steps"] / n
		copyKeys(reps, "bdq.replay_len")
	}
	if sums["calls:cluster.step"] > 0 {
		// Self time: Step minus its controller spans (node prepares,
		// the pooled flush and node finishes).
		pct("cluster.step_self_ms_p50", "cluster.step.self", 0.5, 1)
		pct("cluster.step_self_ms_p99", "cluster.step.self", 0.99, 1)
		pct("cluster.snapshot_interval_ms_p50", "cluster.step@snapshot", 0.5, 1)
		pct("cluster.plain_interval_ms_p50", "cluster.step@!snapshot", 0.5, 1)
		copyKeys(1, "cluster.warm_restores", "cluster.cold_restores", "cluster.migrations",
			"cluster.lease_expiries", "cluster.dark_replica_intervals")
	}
	if sums["calls:daemon.step"] > 0 {
		pct("daemon.step_ms_p50", "daemon.step", 0.5, 1)
		pct("daemon.step_ms_p99", "daemon.step", 0.99, 1)
		if r := series["daemon.step@rebuild"]; len(r) > 0 {
			out["daemon.rebuild_interval_ms"] = mean(r)
		}
		pct("checkpoint.cadence_interval_ms_p50", "daemon.step@checkpoint", 0.5, 1)
		for _, api := range []string{"status", "metrics", "admit", "delete"} {
			pct("daemon.api_"+api+"_ms_p50", "api."+api, 0.5, 1)
		}
		copyKeys(reps, "checkpoint.bytes")
		copyKeys(1, "checkpoint.writes", "checkpoint.dropped", "checkpoint.failed", "daemon.lifecycle_transitions")
		out["metrics.scrape_bytes"] = sums["metrics.scrape_bytes"] / sums["metrics.scrapes"]
	}
	copyKeys(reps, "experiments.qos_calibrate_s", "experiments.power_fit_s", "experiments.build_s")
	copyKeys(1, "runtime.gc_cycles", "runtime.gc_pause_ms")
	out["trace.glue_share"] = share("interval")
	return out, skipped
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pooled merges the untraced replicas of one run: interval samples,
// QoS samples, energy and operations add up; set-up time, allocation
// per interval and peak memory are medians over the replica processes,
// so one replica's unusual fault schedule does not swing them.
type pooled struct {
	childResult
	setups, rss, allocKB []float64
}

func pool(runs []childResult) pooled {
	p := pooled{childResult: childResult{Tally: newTally()}}
	for _, r := range runs {
		p.Intervals += r.Intervals
		p.LoopS += r.LoopS
		p.IntervalMs = append(p.IntervalMs, r.IntervalMs...)
		p.DecideMs = append(p.DecideMs, r.DecideMs...)
		p.APIMs = append(p.APIMs, r.APIMs...)
		p.QoSMet += r.QoSMet
		p.QoSN += r.QoSN
		p.EnergyJ += r.EnergyJ
		for k, n := range r.Tally.Attempted {
			p.Tally.Attempted[k] += n
		}
		for k, n := range r.Tally.Failed {
			p.Tally.Failed[k] += n
		}
		p.setups = append(p.setups, r.Setup.TotalS)
		p.rss = append(p.rss, r.PeakRSSMB)
		p.allocKB = append(p.allocKB, float64(r.AllocBytes)/1024/float64(r.Intervals))
	}
	return p
}

// endToEndValues computes every end-to-end metric of pooled untraced
// replicas, plus allocation, peak memory, and the controller and API
// latencies and the error rate where the workload has them.
func endToEndValues(r pooled) (map[string]float64, []string) {
	out := map[string]float64{
		"setup_s":               median(r.setups),
		"intervals_per_s":       float64(r.Intervals) / r.LoopS,
		"qos_guarantee_pct":     100 * float64(r.QoSMet) / float64(r.QoSN),
		"energy_kj":             r.EnergyJ / 1000,
		"alloc_kb_per_interval": median(r.allocKB),
		"peak_rss_mb":           median(r.rss),
	}
	var skipped []string
	for _, p := range []struct {
		name string
		v    []float64
		q    float64
	}{
		{"interval_p50_ms", r.IntervalMs, 0.5},
		{"interval_p99_ms", r.IntervalMs, 0.99},
		{"decide_p50_ms", r.DecideMs, 0.5},
		{"decide_p99_ms", r.DecideMs, 0.99},
		{"api_p50_ms", r.APIMs, 0.5},
		{"api_p99_ms", r.APIMs, 0.99},
	} {
		if len(p.v) == 0 {
			continue // the layer does not run in this workload
		}
		if q := percentile(p.v, p.q); q.OK {
			out[p.name] = q.Value
		} else {
			skipped = append(skipped, fmt.Sprintf("%s (n=%d)", p.name, q.N))
		}
	}
	out["error_rate"] = r.Tally.errorRate()
	return out, skipped
}

// compareRuns checks that the traced run reproduced the timed run: the
// same trajectory digest, QoS samples and energy bits.
func compareRuns(timed, traced childResult) []string {
	var problems []string
	if i := firstMismatch(timed.Digest, traced.Digest); i >= 0 {
		problems = append(problems, fmt.Sprintf("trajectory digest differs from interval %d", i))
	}
	if timed.QoSMet != traced.QoSMet || timed.QoSN != traced.QoSN {
		problems = append(problems, fmt.Sprintf("qos samples differ: %d/%d vs %d/%d",
			timed.QoSMet, timed.QoSN, traced.QoSMet, traced.QoSN))
	}
	if math.Float64bits(timed.EnergyJ) != math.Float64bits(traced.EnergyJ) {
		problems = append(problems, fmt.Sprintf("energy differs: %v vs %v J", timed.EnergyJ, traced.EnergyJ))
	}
	return problems
}

// provenance identifies the code, toolchain and host of a result.
func provenance(o options) map[string]any {
	rev := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"git_revision":  rev,
		"source_sha256": sourceDigest("."),
		"go_version":    runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"mat_parallel":  mat.Parallelism(),
		"mat_kernel":    mat.KernelName(),
		"cpu_features":  mat.CPUFeatures(),
		"fast_math":     mat.FastMath(),
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"intervals":     o.intervals,
		"trace":         o.trace,
	}
}

// sourceDigest hashes every Go source, assembly file and go.mod under
// root (skipping dot directories), so results from a checkout without
// git history still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(path); !d.IsDir() && (ext == ".go" || ext == ".s" || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// outcome is what one invocation measured, before it is printed.
type outcome struct {
	defs     []metricDef
	values   map[string]float64
	skipped  []string
	problems []string
	runs     []childResult
	prov     map[string]any
}

// endToEndRun runs the workload's timed replicas and, when they are
// fewer than minSetups, set-up-only children.
func endToEndRun(o options, reps int64, per int) (outcome, error) {
	out := outcome{defs: endToEnd, prov: provenance(o)}
	var setups []float64
	for k := int64(0); k < minSetups || k < reps; k++ {
		if k >= reps {
			r, err := spawn(o, "setup", o.seed, 0)
			if err != nil {
				return out, err
			}
			setups = append(setups, r.Setup.TotalS)
			continue
		}
		r, err := spawn(o, "timed", o.seed*reps+k, per)
		if err != nil {
			return out, err
		}
		out.runs = append(out.runs, r)
	}
	p := pool(out.runs)
	p.setups = append(p.setups, setups...)
	out.values, out.skipped = endToEndValues(p)
	out.prov["replica_setup_s"] = p.setups
	out.prov["replica_peak_rss_mb"] = p.rss
	return out, nil
}

// tracedRun runs each replica untraced and then traced with the same
// seed, checks that both took the same trajectory, and reports the
// per-layer split of the pooled traced replicas.
func tracedRun(o options, reps int64, per int) (outcome, error) {
	out := outcome{defs: perLayer, prov: provenance(o)}
	var timed []childResult
	var layers layerData
	var loopTimed, loopTraced float64
	for k := int64(0); k < reps; k++ {
		seed := o.seed*reps + k
		t, err := spawn(o, "timed", seed, per)
		if err != nil {
			return out, err
		}
		tr, err := spawn(o, "traced", seed, per)
		if err != nil {
			return out, err
		}
		for _, p := range compareRuns(t, tr) {
			out.problems = append(out.problems, fmt.Sprintf("seed %d: %s", seed, p))
		}
		out.runs = append(out.runs, t, tr)
		timed = append(timed, t)
		layers.add(tr.Layers)
		loopTimed += t.LoopS
		loopTraced += tr.LoopS
	}
	out.values, out.skipped = tracedValues(layers, timed, loopTraced/loopTimed)
	return out, nil
}

// tracedValues is a --trace 1 run's metrics: the per-layer split of the
// pooled traced replicas, the untraced replicas' allocation, peak
// memory, error rate and controller and API latencies, and the tracing
// overhead from the ratio of traced to untraced loop time.
func tracedValues(layers layerData, timed []childResult, slowdown float64) (map[string]float64, []string) {
	values, skipped := layerMetrics(layers)
	e2e, more := endToEndValues(pool(timed))
	for _, k := range []string{"alloc_kb_per_interval", "peak_rss_mb", "decide_p50_ms", "decide_p99_ms",
		"api_p50_ms", "api_p99_ms", "error_rate"} {
		if v, ok := e2e[k]; ok {
			values[k] = v
		}
	}
	values["trace.overhead_pct"] = 100 * (slowdown - 1)
	return values, append(skipped, more...)
}

func runParent(o options) int {
	reps := int64(workloads[o.workload].replicas)
	per := (o.intervals + int(reps) - 1) / int(reps)
	run := endToEndRun
	if o.trace == 1 {
		run = tracedRun
	}
	out, err := run(o, reps, per)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	problems := out.problems

	line := resultLine{Metrics: map[string]metricValue{}}
	for _, r := range out.runs {
		a, f := r.Tally.totals()
		line.Attempted += a
		line.Failed += f
		for _, msg := range r.Tally.Failures {
			problems = append(problems, r.Mode+" run: "+msg)
		}
	}
	for _, d := range out.defs {
		v, ok := out.values[d.Name]
		switch {
		case !ok:
			problems = append(problems, "metric "+d.Name+" not measured")
		case !finite(v):
			problems = append(problems, fmt.Sprintf("metric %s is %v", d.Name, v))
		default:
			line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	for _, d := range layerDetail {
		if v, ok := out.values[d.Name]; ok && !finite(v) {
			problems = append(problems, fmt.Sprintf("metric %s is %v", d.Name, v))
		}
	}
	line.Correct = len(problems) == 0 && line.Failed == 0

	report(o, out, problems, line)
	blob, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(blob))
	if !line.Correct {
		return 1
	}
	return 0
}

// report prints the human-readable result to standard error and keeps
// a JSON copy with its provenance under the work directory.
func report(o options, out outcome, problems []string, line resultLine) {
	prov, values := out.prov, out.values
	keys := make([]string, 0, len(prov))
	for k := range prov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d trace=%d\n", o.workload, o.seed, o.trace)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-14s %v\n", k, prov[k])
	}
	units := map[string]string{}
	for _, d := range append(append(append([]metricDef(nil), endToEnd...), perLayer...), layerDetail...) {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", k, values[k], units[k])
	}
	for _, s := range out.skipped {
		fmt.Fprintf(os.Stderr, "  skipped, too few samples beyond the percentile: %s\n", s)
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "  FAILED CHECK: %s\n", p)
	}
	dir := filepath.Join(o.workdir, "reports")
	if os.MkdirAll(dir, 0o755) != nil {
		return
	}
	blob, _ := json.MarshalIndent(map[string]any{
		"provenance": prov, "values": values, "skipped": out.skipped, "problems": problems, "result": line,
	}, "", "  ")
	os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace)), blob, 0o644)
}
