// Command perfbench is the Twig benchmark. One invocation measures one
// closed-loop workload for one seed and prints, as its last line, a JSON
// object with the output-check verdict, the operation counts and either
// the end-to-end metrics (--trace 0) or the per-layer split (--trace 1).
//
// Every run happens in a child process of its own, so peak memory and
// set-up time are those of one workload alone:
//
//	--trace 0: the workload's timed replicas, with seeds derived from
//	           --seed, share the intervals; times are pooled, peak
//	           memory is the median over the replicas, and set-up time
//	           the median over at least three fresh processes (set-up-
//	           only children make up the count).
//	--trace 1: the same replicas, each run untraced and then traced;
//	           every pair's trajectories must be identical, and the
//	           per-layer split pools the traced replicas.
//
// Run it through run.py, which builds it from source:
//
//	python3 perfbench/run.py --workload solo-learn --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/twig-sched/twig/internal/experiments"
)

// minSetups is how many fresh processes a --trace 0 run measures
// set-up in. Replica k of a workload with r replicas runs seed·r+k, so
// the simulated outputs average over several learners and fault
// schedules.
const minSetups = 3

// childTimeout bounds one child process.
const childTimeout = 150 * time.Second

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	intervals int
	workdir   string
	child     string
	out       string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for every input of the run")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal host seconds of the timed loop")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer split from a traced rerun")
	flag.IntVar(&o.intervals, "intervals", 0, "timed intervals (0: the workload's nominal rate × --seconds)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for checkpoints, traces and reports")
	flag.StringVar(&o.child, "child", "", "internal: run one child (setup, timed or traced)")
	flag.StringVar(&o.out, "out", "", "internal: child result file")
	flag.Parse()

	spec, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.trace != 0 && o.trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if o.intervals <= 0 {
		o.intervals = int(spec.rate * float64(o.seconds))
		if o.intervals < minIntervals {
			o.intervals = minIntervals
		}
	}
	if o.child != "" {
		res := runChild(o, spec.make())
		blob, err := json.Marshal(res)
		if err == nil {
			err = os.WriteFile(o.out, blob, 0o644)
		}
		if err != nil {
			fatalf("write child result: %v", err)
		}
		return
	}
	os.Exit(runParent(o))
}

// minIntervals is the shortest timed loop: enough samples for a p99
// under the percentile rule.
const minIntervals = 1000

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// setupTimes splits set-up into the calibration, the Eq. 2 power-model
// fits and building the workload's components.
type setupTimes struct {
	QoSCalibrateS float64 `json:"qos_calibrate_s"`
	PowerFitS     float64 `json:"power_fit_s"`
	BuildS        float64 `json:"build_s"`
	TotalS        float64 `json:"total_s"`
}

// childResult is everything one child run reports to the parent.
type childResult struct {
	Mode       string     `json:"mode"`
	Setup      setupTimes `json:"setup"`
	Intervals  int        `json:"intervals"`
	LoopS      float64    `json:"loop_s"`
	IntervalMs []float64  `json:"interval_ms"`
	DecideMs   []float64  `json:"decide_ms"`
	APIMs      []float64  `json:"api_ms"`
	QoSMet     int        `json:"qos_met"`
	QoSN       int        `json:"qos_n"`
	EnergyJ    float64    `json:"energy_j"`
	AllocBytes uint64     `json:"alloc_bytes"`
	PeakRSSMB  float64    `json:"peak_rss_mb"`
	GCCycles   uint32     `json:"gc_cycles"`
	GCPauseMs  float64    `json:"gc_pause_ms"`
	Tally      tally      `json:"tally"`
	Digest     []uint64   `json:"digest"`
	Layers     layerData  `json:"layers"`
}

func runChild(o options, w workload) childResult {
	start := time.Now()
	defer w.close()
	b := newBench(o.child == "traced", o.workdir)
	res := childResult{Mode: o.child, Intervals: o.intervals}

	t := time.Now()
	for _, n := range w.services() {
		experiments.QoSTarget(n)
	}
	res.Setup.QoSCalibrateS = time.Since(t).Seconds()
	t = time.Now()
	for _, n := range w.services() {
		experiments.PowerModelFor(n)
	}
	res.Setup.PowerFitS = time.Since(t).Seconds()
	t = time.Now()
	if err := w.build(b, o.seed); err != nil {
		fatalf("build %s: %v", o.workload, err)
	}
	res.Setup.BuildS = time.Since(t).Seconds()
	res.Setup.TotalS = time.Since(start).Seconds()
	if o.child == "setup" {
		return res
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	a0 := allocs[0].Value.Uint64()
	loop := time.Now()
	for i := 0; i < o.intervals; i++ {
		w.step(b, i)
	}
	res.LoopS = time.Since(loop).Seconds()
	metrics.Read(allocs)
	res.AllocBytes = allocs[0].Value.Uint64() - a0
	runtime.ReadMemStats(&ms1)
	res.GCCycles = ms1.NumGC - ms0.NumGC
	res.GCPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	w.finish(b)
	res.IntervalMs, res.DecideMs, res.APIMs = b.intervalMs, b.decideMs, b.apiMs
	res.QoSMet, res.QoSN, res.EnergyJ = b.qosMet, b.qosN, b.energyJ
	res.Tally = b.tally
	res.Digest = b.dig.Intervals
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if b.tr != nil {
		res.Layers = collectLayers(b, res)
		if err := writeTrace(o, b.tr.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
		}
	}
	return res
}

// writeTrace writes the traced run's spans, one JSON object per line.
func writeTrace(o options, spans []span) error {
	dir := filepath.Join(o.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spawn runs one child of this binary and decodes its result.
func spawn(o options, mode string, seed int64, intervals int) (childResult, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return res, err
	}
	out := filepath.Join(o.workdir, fmt.Sprintf("child-%d-%s-%d.json", os.Getpid(), mode, seed))
	defer os.Remove(out)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"--workload", o.workload, "--seed", fmt.Sprint(seed), "--intervals", fmt.Sprint(intervals),
		"--workdir", o.workdir, "--child", mode, "--out", out)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s child: %w", mode, err)
	}
	blob, err := os.ReadFile(out)
	if err == nil {
		err = json.Unmarshal(blob, &res)
	}
	return res, err
}
