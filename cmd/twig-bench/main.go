// Command twig-bench is the benchmark trajectory harness: it drives the
// numeric hot path (warm Agent.Observe, the Table III gradient-descent
// step, a GEMM sweep over the paper-size layer shapes and a quick-scale
// Fig. 5 control cell) through testing.Benchmark and emits the results
// as machine-readable JSON (BENCH_PR5.json at the repo root is the
// committed baseline).
//
// Usage:
//
//	twig-bench                          # full run, JSON to stdout
//	twig-bench -short                   # CI smoke mode (seconds, noisier)
//	twig-bench -out BENCH_PR5.json      # write the JSON to a file
//	twig-bench -baseline BENCH_PR5.json # compare; exit 1 on >2× regression
//
// The -baseline comparison is deliberately loose (-max-regress, default
// 2×) so shared-runner noise does not fail CI, while real regressions —
// a disabled kernel, an accidental allocation on a zero-alloc path — do.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/replay"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/pmc"
	"github.com/twig-sched/twig/internal/sim/service"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Dispatch annotates GEMM results with the path the shape takes
	// (streaming/tiled), the kernel flavour and the parallel gate.
	Dispatch string             `json:"dispatch,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// Report is the JSON document twig-bench emits.
type Report struct {
	Schema    int    `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Kernel records the GEMM microkernel flavour dispatch selected at
	// startup ("portable" or "avx2") and CPUFeatures the instruction-set
	// extensions the build detected ("avx2" or "none") — so a baseline
	// comparison can tell a real regression from a kernel-availability
	// difference.
	Kernel      string   `json:"kernel"`
	CPUFeatures string   `json:"cpu_features"`
	Parallelism int      `json:"parallelism"`
	Short       bool     `json:"short"`
	Results     []Result `json:"results"`
}

func main() {
	testing.Init() // registers test.benchtime, which testing.Benchmark reads
	short := flag.Bool("short", false, "smoke mode: one iteration per benchmark")
	out := flag.String("out", "", "write JSON report to this file (default stdout)")
	baseline := flag.String("baseline", "", "compare against a committed report; exit 1 on regression")
	maxRegress := flag.Float64("max-regress", 2.0, "ns/op ratio vs baseline that counts as a regression")
	flag.Parse()

	rep := Report{
		Schema:      2,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Kernel:      mat.KernelName(),
		CPUFeatures: mat.CPUFeatures(),
		Parallelism: mat.Parallelism(),
		Short:       *short,
	}

	// Short mode trims time budgets but keeps every benchmark warm
	// enough to compare against a full-run baseline: the GEMMs get a few
	// hundred iterations, Table III two gradient steps (its per-step
	// metric is what the baseline diff uses), Observe a single warm call.
	btGemm, btTable3, btObserve := "1s", "1s", "1s"
	if *short {
		btGemm, btTable3, btObserve = "25ms", "2x", "1x"
	}

	rep.Results = append(rep.Results, gemmSweep(btGemm)...)
	rep.Results = append(rep.Results, fleetSweep(btGemm)...)
	rep.Results = append(rep.Results, trainSweep(btGemm)...)
	rep.Results = append(rep.Results, benchTable3(btTable3))
	rep.Results = append(rep.Results, benchAgentObserve(btObserve))
	rep.Results = append(rep.Results, benchFig5Cell(*short))

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshal report: %v", err)
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "twig-bench: wrote %s\n", *out)
	} else {
		os.Stdout.Write(blob)
	}

	if *baseline != "" {
		if !compare(rep, *baseline, *maxRegress) {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "twig-bench: "+format+"\n", args...)
	os.Exit(2)
}

// run executes fn under testing.Benchmark at the given benchtime and
// packages the result.
func run(name, benchtime string, metrics map[string]float64, fn func(b *testing.B)) Result {
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		fatalf("set benchtime: %v", err)
	}
	fmt.Fprintf(os.Stderr, "twig-bench: running %s\n", name)
	r := testing.Benchmark(fn)
	return Result{
		Name:        name,
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Metrics:     metrics,
	}
}

// runBest runs fn under testing.Benchmark reps times and keeps the
// fastest rep, discarding scheduler/neighbour interference on shared
// hardware.
func runBest(reps int, name, benchtime string, fn func(b *testing.B)) Result {
	best := run(name, benchtime, nil, fn)
	for r := 1; r < reps; r++ {
		if res := run(name, benchtime, nil, fn); res.NsPerOp < best.NsPerOp {
			best = res
		}
	}
	return best
}

// gemmSweep benchmarks the tiled kernels over the real layer shapes of
// the paper-size BDQ network (Table III row 1), serial like the
// per-interval inference path.
func gemmSweep(benchtime string) []Result {
	shapes := []struct{ m, k, n int }{
		{64, 22, 512},  // shared0 forward, batch 64
		{64, 512, 256}, // shared1 forward
		{64, 256, 128}, // branch hidden forward
		{64, 128, 18},  // advantage head forward
		{1, 22, 512},   // batch-1 action selection
	}
	rng := newDetRand()
	var results []Result
	for _, s := range shapes {
		a, b := mat.New(s.m, s.k), mat.New(s.k, s.n)
		fillDet(a.Data, rng)
		fillDet(b.Data, rng)
		dst := mat.New(s.m, s.n)
		flops := 2 * s.m * s.k * s.n
		res := run(fmt.Sprintf("gemm/mul_%dx%dx%d", s.m, s.k, s.n), benchtime, nil, func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				mat.Mul(dst, a, b)
			}
		})
		di := mat.MulDispatch(s.m, s.k, s.n)
		res.Dispatch = fmt.Sprintf("%s/%s/parallel=%v", di.Path, di.Kernel, di.Parallel)
		res.Metrics = map[string]float64{"gflops": float64(flops) / res.NsPerOp}
		results = append(results, res)
	}
	// Backward-pass shapes for the widest layer: dW = xᵀ·g, gradIn = g·Wᵀ.
	x, g, w := mat.New(64, 512), mat.New(64, 256), mat.New(512, 256)
	fillDet(x.Data, rng)
	fillDet(g.Data, rng)
	fillDet(w.Data, rng)
	dw, gin := mat.New(512, 256), mat.New(64, 512)
	res := run("gemm/multransa_512x64x256", benchtime, nil, func(bb *testing.B) {
		bb.ReportAllocs()
		for i := 0; i < bb.N; i++ {
			mat.MulTransA(dw, x, g)
		}
	})
	res.Metrics = map[string]float64{"gflops": float64(2*64*512*256) / res.NsPerOp}
	results = append(results, res)
	res = run("gemm/multransb_64x256x512", benchtime, nil, func(bb *testing.B) {
		bb.ReportAllocs()
		for i := 0; i < bb.N; i++ {
			mat.MulTransB(gin, g, w)
		}
	})
	res.Metrics = map[string]float64{"gflops": float64(2*64*512*256) / res.NsPerOp}
	results = append(results, res)
	return results
}

// actionSink keeps the fleet-sweep selects from being dead-code
// eliminated.
var actionSink [][]int

// fleetSweep measures the tentpole win: amortized per-agent action
// selection for a fleet of S Twig agents, as S independent batch-1
// sweeps (the per-agent path every node pays today) versus one pooled
// grouped-GEMM flush over the whole fleet (persistent packed panels,
// one fused row-kernel sweep per layer). The trunk is sized so the
// S=36 fleet's weight set stays cache-resident (~650 KB): the sweep
// then measures batching and kernel-dispatch economics, not the memory
// wall — which the S=144 point shows anyway, on both paths alike.
// Each cell keeps the fastest of three benchmark reps; the solo and
// pooled loops stream identical bytes, so interference noise is the
// only thing the reps discard.
func fleetSweep(benchtime string) []Result {
	spec := bdq.Spec{
		StateDim:     2 * int(pmc.NumCounters),
		Agents:       2,
		Dims:         []int{18, 9},
		SharedHidden: []int{32, 16},
		BranchHidden: 8,
	}
	var results []Result
	for _, S := range []int{1, 8, 36, 144} {
		states := make([][]float64, S)
		rng := newDetRand()
		for i := range states {
			states[i] = make([]float64, spec.StateDim)
			fillDet(states[i], rng)
		}
		cfg := func(i int) bdq.AgentConfig {
			// Select-only sweep: a tiny replay buffer keeps the S=144
			// fleet from paying a gigabyte of untouched transition slots.
			return bdq.AgentConfig{Spec: spec, BatchSize: 8, ReplayCapacity: 256, Seed: int64(1 + i)}
		}

		solo := make([]*bdq.Agent, S)
		for i := range solo {
			solo[i] = bdq.NewAgent(cfg(i))
			actionSink = solo[i].SelectGreedy(states[i]) // warm workspaces
		}
		soloRes := runBest(3, fmt.Sprintf("fleet/select_solo_s%d", S), benchtime, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for s := 0; s < S; s++ {
					actionSink = solo[s].SelectGreedy(states[s])
				}
			}
		})
		soloPerAgent := soloRes.NsPerOp / float64(S)
		soloRes.Metrics = map[string]float64{"ns_per_agent_select": soloPerAgent}
		results = append(results, soloRes)

		pool := bdq.NewAgentPool()
		pooled := make([]*bdq.PooledAgent, S)
		for i := range pooled {
			pooled[i] = pool.Attach(bdq.NewAgent(cfg(i)))
		}
		flushAll := func() {
			for s := 0; s < S; s++ {
				pooled[s].QueueSelect(states[s], true)
			}
			pool.FlushStep()
			for s := 0; s < S; s++ {
				actionSink = pooled[s].TakeActions()
			}
		}
		flushAll() // warm packed panels and the stacked workspace
		pooledRes := runBest(3, fmt.Sprintf("fleet/select_pooled_s%d", S), benchtime, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				flushAll()
			}
		})
		pooledPerAgent := pooledRes.NsPerOp / float64(S)
		pooledRes.Metrics = map[string]float64{
			"ns_per_agent_select": pooledPerAgent,
			"speedup_vs_solo":     soloPerAgent / pooledPerAgent,
		}
		results = append(results, pooledRes)
	}
	return results
}

// lossSink keeps the train-sweep observes from being dead-code
// eliminated.
var lossSink float64

// trainSweep measures fleet training: one warm Observe (one gradient
// step) per fleet member, S independent per-agent train steps. Pooled
// members train through the same Agent.Observe, so there is no separate
// pooled row.
func trainSweep(benchtime string) []Result {
	spec := bdq.Spec{
		StateDim:     2 * int(pmc.NumCounters),
		Agents:       2,
		Dims:         []int{18, 9},
		SharedHidden: []int{32, 16},
		BranchHidden: 8,
	}
	cfg := func(i int) bdq.AgentConfig {
		return bdq.AgentConfig{Spec: spec, BatchSize: 8, ReplayCapacity: 256, Seed: int64(1 + i)}
	}
	state := make([]float64, spec.StateDim)
	next := make([]float64, spec.StateDim)
	rng := newDetRand()
	fillDet(state, rng)
	fillDet(next, rng)
	tr := replay.Transition{
		State:     state,
		Actions:   []int{3, 4, 5, 6},
		Rewards:   []float64{1, 1},
		NextState: next,
	}

	var results []Result
	for _, S := range []int{1, 8, 36} {
		solo := make([]*bdq.Agent, S)
		for i := range solo {
			solo[i] = bdq.NewAgent(cfg(i))
			for j := 0; j < 2*8; j++ { // past warmup: every further Observe trains
				lossSink = solo[i].Observe(tr)
			}
		}
		soloRes := runBest(3, fmt.Sprintf("fleet/train_solo_s%d", S), benchtime, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for s := 0; s < S; s++ {
					lossSink = solo[s].Observe(tr)
				}
			}
		})
		soloRes.Metrics = map[string]float64{"ns_per_agent_train": soloRes.NsPerOp / float64(S)}
		results = append(results, soloRes)
	}
	return results
}

// benchTable3 measures the Table III overhead rows; ns_per_op covers a
// whole Table3 iteration, the metric isolates the gradient-descent step.
// Best of 3 reps, like the fleet sweep — a single rep's us_per_step is
// hostage to neighbour interference on shared hardware. Each rep's
// metric is its final calibrated measurement (not the low-N warmup
// probes), and the best rep wins by that metric.
func benchTable3(benchtime string) Result {
	var usPerStep float64
	var best Result
	for rep := 0; rep < 3; rep++ {
		res := run("table3/gradient_descent", benchtime, nil, func(b *testing.B) {
			r := experiments.Table3(b.N)
			usPerStep = float64(r.GradientDescent.Microseconds())
		})
		if rep == 0 || usPerStep < best.Metrics["us_per_step"] {
			res.Metrics = map[string]float64{"us_per_step": usPerStep}
			best = res
		}
	}
	return best
}

// benchAgentObserve measures the warm steady-state per-interval learning
// cost at paper scale — the zero-allocation contract lives here.
func benchAgentObserve(benchtime string) Result {
	sc := experiments.PaperScale()
	spec := bdq.Spec{
		StateDim:     2 * int(pmc.NumCounters),
		Agents:       2,
		Dims:         []int{18, 9},
		SharedHidden: sc.SharedHidden,
		BranchHidden: sc.BranchHidden,
		Dropout:      sc.Dropout,
	}
	agent := bdq.NewAgent(bdq.AgentConfig{
		Spec:      spec,
		BatchSize: sc.BatchSize,
		UsePER:    true,
		Seed:      1,
	})
	state := make([]float64, spec.StateDim)
	next := make([]float64, spec.StateDim)
	for i := range state {
		state[i] = 0.3
		next[i] = 0.31
	}
	t := replay.Transition{State: state, Actions: []int{3, 4, 5, 6}, Rewards: []float64{1, 1}, NextState: next}
	for i := 0; i < 2*sc.BatchSize; i++ {
		agent.Observe(t)
	}
	return run("agent/observe_warm", benchtime, nil, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			agent.Observe(t)
		}
	})
}

// benchFig5Cell times one quick-scale Fig. 5 control cell (masstree at
// 50% load under Twig-S) end to end and reports simulated control
// intervals per wall-clock second, plus the heap allocations and bytes
// per interval measured over the same timed run (a runtime.MemStats
// delta). Short mode truncates the run.
func benchFig5Cell(short bool) Result {
	sc := experiments.QuickScale()
	if short {
		sc.LearnS = 200
		sc.SummaryS = 50
	}
	seconds := sc.LearnS + sc.SummaryS
	fmt.Fprintf(os.Stderr, "twig-bench: running fig5/quick_cell (%d intervals)\n", seconds)
	prof := service.MustLookup("masstree")
	srv := experiments.NewServer(1, "masstree")
	c := experiments.NewTwig(srv, sc, 1, "masstree")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	experiments.Run(experiments.RunConfig{
		Server:       srv,
		Controller:   c,
		Patterns:     []loadgen.Pattern{loadgen.Fixed(0.5 * prof.MaxLoadRPS)},
		Seconds:      seconds,
		SummaryFromS: sc.LearnS,
	})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Result{
		Name:        "fig5/quick_cell",
		N:           seconds,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(seconds),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(seconds),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(seconds),
		Metrics: map[string]float64{
			"intervals_per_sec": float64(seconds) / elapsed.Seconds(),
		},
	}
}

// compare checks the current report against a committed baseline and
// reports per-result ratios. A result regresses when its ns/op exceeds
// maxRegress × baseline, or when a zero-allocation benchmark starts
// allocating. Results missing on either side are noted, never fatal.
func compare(cur Report, baselinePath string, maxRegress float64) bool {
	blob, err := os.ReadFile(baselinePath)
	if err != nil {
		fatalf("read baseline: %v", err)
	}
	var base Report
	if err := json.Unmarshal(blob, &base); err != nil {
		fatalf("parse baseline %s: %v", baselinePath, err)
	}
	baseByName := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseByName[r.Name] = r
	}
	ok := true
	for _, r := range cur.Results {
		b, found := baseByName[r.Name]
		if !found {
			fmt.Fprintf(os.Stderr, "twig-bench: %-28s  new (no baseline)\n", r.Name)
			continue
		}
		// Table III's ns/op carries a 1/N-amortised fixed cost (the
		// monitor/mapper rows), so its stable per-step metric is the
		// comparison basis when both sides report it.
		cur, ref, unit := r.NsPerOp, b.NsPerOp, "ns/op"
		if c, okc := r.Metrics["us_per_step"]; okc {
			if bb, okb := b.Metrics["us_per_step"]; okb {
				cur, ref, unit = c, bb, "µs/step"
			}
		}
		ratio := cur / ref
		status := "ok"
		if ratio > maxRegress {
			status = fmt.Sprintf("REGRESSION (>%.1fx)", maxRegress)
			ok = false
		}
		// The zero-alloc contract is enforced on the warm steady-state
		// path only; cold single-iteration runs legitimately pay pool
		// warm-up allocations.
		if r.Name == "agent/observe_warm" && b.AllocsPerOp == 0 && r.AllocsPerOp > 0 {
			status = fmt.Sprintf("REGRESSION (%d allocs/op on zero-alloc path)", r.AllocsPerOp)
			ok = false
		}
		fmt.Fprintf(os.Stderr, "twig-bench: %-28s  %10.0f %s  baseline %10.0f  ratio %.2fx  %s\n",
			r.Name, cur, unit, ref, ratio, status)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "twig-bench: FAIL — regressions vs baseline")
	} else {
		fmt.Fprintln(os.Stderr, "twig-bench: PASS — within baseline envelope")
	}
	return ok
}

// newDetRand and fillDet give the sweep deterministic operand data
// without importing math/rand (xorshift64).
func newDetRand() *uint64 { s := uint64(0x9E3779B97F4A7C15); return &s }

func fillDet(data []float64, s *uint64) {
	for i := range data {
		*s ^= *s << 13
		*s ^= *s >> 7
		*s ^= *s << 17
		// Map to roughly [-1, 1).
		data[i] = float64(int64(*s))/float64(1<<63)*0.5 + 0.25
	}
}
