package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/cluster"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/daemon"
	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/faults"
	"github.com/twig-sched/twig/internal/sim/service"
)

// workload is one closed control loop: build it, then step it one
// simulated second at a time on the calling goroutine.
type workload interface {
	// services lists the profiles whose QoS targets and power models
	// set-up calibrates before building.
	services() []string
	build(b *bench, seed int64) error
	step(b *bench, t int)
	// finish runs the end-of-run output checks and fills the counts.
	finish(b *bench)
	close()
}

// workloads maps each workload name to its constructor. rate is the
// nominal timed intervals per host second on the reference host
// (2-core AMD EPYC), so a run executes rate × --seconds intervals and
// the simulated outputs of a seed do not depend on host speed. replicas
// is how many timed processes a --trace 0 run splits those intervals
// over (see main.go).
var workloads = map[string]struct {
	rate     float64
	replicas int
	make     func() workload
}{
	"solo-learn": {rate: 1050, replicas: 3, make: func() workload {
		return &single{names: []string{"masstree"}, fracs: []float64{0.5}}
	}},
	"coloc-memcached": {rate: 300, replicas: 3, make: func() workload {
		return &single{names: []string{"memcached", "xapian"}, fracs: []float64{0.6, 0.4}}
	}},
	"fleet-chaos":  {rate: 135, replicas: 5, make: func() workload { return &fleet{} }},
	"daemon-churn": {rate: 800, replicas: 1, make: func() workload { return &churn{} }},
}

// bench collects one run's measurements. Every timing series is taken
// with the monotonic clock around public calls; tr is nil in the
// untraced run.
type bench struct {
	tr    *tracer
	tally tally
	dig   digest

	intervalMs []float64 // one whole interval
	decideMs   []float64 // controller time per interval
	apiMs      []float64 // every poller round trip
	qosMet     int
	qosN       int
	energyJ    float64

	// counts holds per-layer counters a workload reports directly.
	counts map[string]float64
	// marks tags intervals by kind (checkpoint cadence, snapshot,
	// membership rebuild) for the per-layer split.
	marks   map[string]map[int]bool
	workdir string
}

func newBench(traced bool, workdir string) *bench {
	b := &bench{
		tally:   newTally(),
		counts:  map[string]float64{},
		marks:   map[string]map[int]bool{},
		workdir: workdir,
	}
	if traced {
		b.tr = newTracer("sim.step", "core.prepare", "core.finish")
	}
	return b
}

func (b *bench) mark(kind string, t int) {
	if b.marks[kind] == nil {
		b.marks[kind] = map[int]bool{}
	}
	b.marks[kind][t] = true
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// hashAssignment folds an assignment's bits into the digest.
func (b *bench) hashAssignment(asg sim.Assignment) {
	b.dig.f64(asg.IdleFreqGHz)
	for _, a := range asg.PerService {
		b.dig.ints(len(a.Cores))
		b.dig.ints(a.Cores...)
		b.dig.f64(a.FreqGHz)
		b.dig.ints(a.CacheWays)
	}
}

// conservation counts the (service, interval) pairs that break
// arrivals + previous backlog = completed + dropped + backlog. prev
// holds each service's previous reported backlog and is updated.
func conservation(b *bench, stats []sim.ServiceStats, prev []int) {
	for i, sv := range stats {
		if sv.Arrivals+prev[i] != sv.Completed+sv.Dropped+sv.QueueLen {
			b.counts["sim.conservation_breaks"]++
		}
		prev[i] = sv.QueueLen
		b.counts["sim.requests"] += float64(sv.Arrivals)
	}
}

// fallback is the conservative mapping a node holds when its controller
// fails: every service on every managed core at the top DVFS step.
func fallback(srv *sim.Server) sim.Assignment {
	lo, hi := srv.FreqRange()
	asg := sim.Assignment{PerService: make([]sim.Allocation, srv.NumServices()), IdleFreqGHz: lo}
	for i := range asg.PerService {
		asg.PerService[i] = sim.Allocation{Cores: srv.ManagedCores(), FreqGHz: hi}
	}
	return asg
}

// single is one node under an unpooled Twig manager (Twig-S for one
// service, Twig-C for more) at fixed loads.
type single struct {
	names []string
	fracs []float64

	srv       *sim.Server
	mgr       *core.Manager
	tracker   ctrl.ObservationTracker
	obs       ctrl.Observation
	loads     []float64
	lastValid sim.Assignment
	prevQueue []int
}

func (w *single) services() []string { return w.names }

func (w *single) build(b *bench, seed int64) error {
	w.srv = experiments.NewServer(seed, w.names...)
	w.mgr = experiments.NewTwig(w.srv, experiments.QuickScale(), seed, w.names...)
	w.obs = ctrl.InitialObservation(w.srv)
	w.lastValid = fallback(w.srv)
	for i, n := range w.names {
		w.loads = append(w.loads, w.fracs[i]*service.MustLookup(n).MaxLoadRPS)
	}
	w.prevQueue = make([]int, len(w.names))
	return nil
}

func (w *single) prepare(b *bench) (ok bool) {
	sp := b.tr.begin("core.prepare")
	defer b.tr.end(sp)
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	w.mgr.PrepareDecide(w.obs)
	return true
}

func (w *single) finishDecide(b *bench) (asg sim.Assignment, ok bool) {
	sp := b.tr.begin("core.finish")
	defer b.tr.end(sp)
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return w.mgr.FinishDecide(), true
}

func (w *single) step(b *bench, t int) {
	tr := b.tr
	tr.nextInterval(t)
	var failure string
	start := time.Now()
	root := tr.begin("interval")

	asg, ok := w.lastValid, w.prepare(b)
	if ok {
		asg, ok = w.finishDecide(b)
	}
	if !ok {
		failure = "decide panic"
		asg = w.lastValid
	}
	decide := msSince(start)

	sp := tr.begin("sim.step")
	res, err := w.srv.Step(asg, w.loads)
	if err != nil {
		failure = "step error: " + err.Error()
		asg = w.lastValid
		res, err = w.srv.Step(asg, w.loads)
	}
	tr.end(sp)
	if err != nil {
		panic("perfbench: fallback assignment rejected: " + err.Error())
	}
	w.lastValid = asg

	sp = tr.begin("ctrl.observe")
	w.obs = w.tracker.Observe(w.srv, res)
	tr.end(sp)
	tr.end(root)
	b.intervalMs = append(b.intervalMs, msSince(start))
	b.decideMs = append(b.decideMs, decide)

	b.energyJ += res.EnergyJ
	for i, so := range w.obs.Services {
		b.qosN++
		if so.QoSMet() {
			b.qosMet++
		}
		if !finite(res.Services[i].P99Ms) || res.Services[i].P99Ms < 0 {
			failure = "non-finite p99"
		}
	}
	if loss := w.mgr.LastLoss(); !finite(loss) {
		failure = fmt.Sprintf("non-finite loss %v", loss)
	}
	conservation(b, res.Services, w.prevQueue)

	b.dig.ints(t)
	b.hashAssignment(asg)
	for _, sv := range res.Services {
		b.dig.f64(sv.P99Ms)
	}
	b.dig.close()

	b.tally.attempt("interval", 1)
	if failure != "" {
		b.tally.fail("interval", fmt.Sprintf("t=%d %s", t, failure))
	}
}

func (w *single) finish(b *bench) {}
func (w *single) close()          {}

// fleetNodes, fleetCapacity and fleetSnapshotEvery size the chaos
// fleet; the snapshot cadence is the coordinator's default.
const (
	fleetNodes         = 6
	fleetCapacity      = 2
	fleetSnapshotEvery = 10
)

// fleet is a cluster.Coordinator running pooled Twig managers under the
// chaos node scenario. Each node's manager is wrapped so its phased
// decide and the fleet's pooled flush are timed from outside.
type fleet struct {
	c    *cluster.Coordinator
	b    *bench
	live map[*timedManager]bool

	decide   time.Duration // controller time of the current interval
	prepared int           // managers prepared since the last flush
	flushes  int
	members  int
}

// timedManager is a pooled manager whose phased decide is timed. It
// forwards every call unchanged, so the trajectory is the manager's
// own.
type timedManager struct {
	*core.Manager
	f            *fleet
	replayBefore int
}

func (m *timedManager) PrepareDecide(obs ctrl.Observation) {
	f := m.f
	f.b.dig.ints(obs.Time)
	for _, s := range obs.Services {
		f.b.dig.f64(s.P99Ms)
	}
	m.replayBefore = m.Agent().ReplayLen()
	sp := f.b.tr.begin("core.prepare")
	start := time.Now()
	defer func() {
		f.decide += time.Since(start)
		f.b.tr.end(sp)
	}()
	m.Manager.PrepareDecide(obs)
	f.prepared++
}

func (m *timedManager) FinishDecide() sim.Assignment {
	f := m.f
	sp := f.b.tr.begin("core.finish")
	start := time.Now()
	asg := func() sim.Assignment {
		defer func() {
			f.decide += time.Since(start)
			f.b.tr.end(sp)
		}()
		return m.Manager.FinishDecide()
	}()
	f.b.hashAssignment(asg)
	if loss := m.LastLoss(); !finite(loss) {
		f.b.tally.fail("interval", fmt.Sprintf("non-finite loss %v", loss))
	}
	a := m.Agent()
	if n := a.ReplayLen(); n > m.replayBefore && n >= a.Config().WarmupSteps {
		f.b.counts["bdq.train_steps"] += float64(a.Config().TrainPerStep)
	}
	return asg
}

func (m *timedManager) Close() {
	delete(m.f.live, m)
	m.Manager.Close()
}

func (w *fleet) services() []string { return []string{"masstree", "xapian", "img-dnn", "moses"} }

func (w *fleet) build(b *bench, seed int64) error {
	w.b = b
	w.live = map[*timedManager]bool{}
	factory, flush := experiments.PooledFleetFactory(experiments.QuickScale())
	timed := func(srv *sim.Server, specs []cluster.ReplicaSpec, seed int64) (ctrl.Controller, []checkpoint.Checkpointable) {
		ctl, comps := factory(srv, specs, seed)
		m := &timedManager{Manager: ctl.(*core.Manager), f: w}
		w.live[m] = true
		return m, comps
	}
	timedFlush := func() {
		sp := b.tr.begin("bdq.flush")
		start := time.Now()
		flush()
		w.decide += time.Since(start)
		b.tr.end(sp)
		w.flushes++
		w.members += w.prepared
		w.prepared = 0
	}
	c, err := cluster.New(cluster.Config{
		Nodes:         fleetNodes,
		NodeCapacity:  fleetCapacity,
		Seed:          seed,
		Scenario:      faults.MustNamedCluster("chaos"),
		MaxRetries:    4, // the figchaos retry budget (experiments.ChaosCellRun)
		SnapshotEvery: fleetSnapshotEvery,
		Factory:       timed,
		Flush:         timedFlush,
	})
	if err != nil {
		return err
	}
	w.c = c
	// experiments.ChaosMix twice; the second copy's priorities sit
	// above the first's so every replica's rank is distinct.
	for dup := 0; dup < 2; dup++ {
		for _, spec := range experiments.ChaosMix() {
			spec.Priority += dup * 3
			if _, err := c.Admit(spec); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *fleet) step(b *bench, t int) {
	b.tr.nextInterval(t)
	w.decide = 0
	start := time.Now()
	root := b.tr.begin("interval")
	sp := b.tr.begin("cluster.step")
	sum := w.c.Step()
	b.tr.end(sp)
	b.tr.end(root)
	b.intervalMs = append(b.intervalMs, msSince(start))
	b.decideMs = append(b.decideMs, float64(w.decide)/1e6)
	if (t+1)%fleetSnapshotEvery == 0 {
		b.mark("snapshot", t)
	}
	replay := 0
	for m := range w.live {
		replay += m.Agent().ReplayLen()
	}
	b.counts["bdq.replay_len"] = math.Max(b.counts["bdq.replay_len"], float64(replay))
	b.dig.f64(sum.EnergyJ)
	b.dig.close()
	b.tally.attempt("interval", 1)
}

func (w *fleet) finish(b *bench) {
	sum := w.c.Summary()
	b.energyJ = sum.EnergyJ
	for i := 0; i < sum.DecidePanics; i++ {
		b.tally.fail("interval", "decide panic")
	}
	for i := 0; i < sum.StepErrors; i++ {
		b.tally.fail("interval", "step error")
	}
	for _, r := range w.c.Replicas() {
		b.tally.attempt("replica", 1)
		if r.State == cluster.DeadLetter {
			b.tally.fail("replica", fmt.Sprintf("replica %d (%s) dead-lettered: %s", r.ID, r.Spec.Service, r.Reason))
		}
		end := sum.Time
		if r.DeadStep >= 0 {
			end = r.DeadStep
		}
		b.tally.attempt("check", 1)
		if r.Ticks() != end-r.AdmitStep {
			b.tally.fail("check", fmt.Sprintf("replica %d accounting: %d intervals + %d dark != lifetime %d",
				r.ID, r.Intervals, r.DarkIntervals, end-r.AdmitStep))
		}
		b.qosN += r.Ticks()
		b.qosMet += r.Ticks() - r.Violations
		b.counts["cluster.dark_replica_intervals"] += float64(r.DarkIntervals)
	}
	b.counts["cluster.warm_restores"] = float64(sum.WarmRestores)
	b.counts["cluster.cold_restores"] = float64(sum.ColdRestores)
	b.counts["cluster.migrations"] = float64(sum.Migrations)
	b.counts["cluster.lease_expiries"] = float64(sum.LeaseExpiries)
	b.counts["bdq.members"] = float64(w.members)
	b.counts["bdq.flushes"] = float64(w.flushes)
}

func (w *fleet) close() {}

// Churn schedule, in simulated seconds: the poller admits moses at
// t ≡ churnAdmit and deletes it at t ≡ churnDelete (mod churnPeriod),
// and scrapes /metrics every metricsEvery intervals.
const (
	churnPeriod     = 200
	churnAdmit      = 50
	churnDelete     = 150
	metricsEvery    = 10
	checkpointEvery = 60
)

// churn is a daemon.Engine behind its HTTP API on loopback, driven
// interval by interval with a poller between intervals.
type churn struct {
	e      *daemon.Engine
	store  *checkpoint.Store
	dir    string
	server *http.Server
	served chan error
	client *http.Client
	base   string

	prevQueue []int
	scrapes   []float64
	submits   int
}

func (w *churn) services() []string { return []string{"masstree", "xapian", "img-dnn", "moses"} }

func (w *churn) build(b *bench, seed int64) error {
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.workdir, "daemon-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.store, err = checkpoint.NewStore(dir, 3); err != nil {
		return err
	}
	w.e, err = daemon.New(daemon.Config{
		Scale:           experiments.QuickScale(),
		Seed:            seed,
		Guard:           true,
		Store:           w.store,
		CheckpointEvery: checkpointEvery,
	}, []daemon.AdmitRequest{
		{Name: "masstree", Load: 0.5},
		{Name: "xapian", Load: 0.4},
		{Name: "img-dnn", Load: 0.3},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.server = &http.Server{Handler: daemon.NewMux(w.e)}
	w.served = make(chan error, 1)
	go func() { w.served <- w.server.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	return nil
}

// call sends one poller request and times its round trip.
func (w *churn) call(b *bench, name, method, path, body string, want ...int) []byte {
	b.tally.attempt("http", 1)
	sp := b.tr.begin(name)
	start := time.Now()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	var data []byte
	code := 0
	if err == nil {
		var resp *http.Response
		if resp, err = w.client.Do(req); err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			code = resp.StatusCode
		}
	}
	b.apiMs = append(b.apiMs, msSince(start))
	b.tr.end(sp)
	switch {
	case err != nil:
		b.tally.fail("http", fmt.Sprintf("%s %s: %v", method, path, err))
	case !intIn(code, want):
		b.tally.fail("http", fmt.Sprintf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(data)))
	}
	return data
}

func intIn(v int, set []int) bool {
	for _, s := range set {
		if v == s {
			return true
		}
	}
	return false
}

type statusView struct {
	Time     int `json:"time"`
	Services []struct {
		Name  string `json:"name"`
		State string `json:"state"`
	} `json:"services"`
}

func (w *churn) step(b *bench, t int) {
	tr := b.tr
	tr.nextInterval(t)
	var failure string
	mgr := w.e.Manager()
	root := tr.begin("interval")
	sp := tr.begin("daemon.step")
	start := time.Now()
	res, err := w.e.Step()
	b.intervalMs = append(b.intervalMs, msSince(start))
	tr.end(sp)

	status := w.call(b, "api.status", "GET", "/status", "", http.StatusOK)
	if t%metricsEvery == 0 {
		body := w.call(b, "api.metrics", "GET", "/metrics", "", http.StatusOK)
		w.scrapes = append(w.scrapes, float64(len(body)))
	}
	switch t % churnPeriod {
	case churnAdmit:
		w.call(b, "api.admit", "POST", "/services", `{"name":"moses","load":0.3}`, http.StatusAccepted)
	case churnDelete:
		w.call(b, "api.delete", "DELETE", "/services/moses", "", http.StatusAccepted, http.StatusOK)
	}
	tr.end(root)

	if err != nil {
		failure = "step error: " + err.Error()
	}
	if w.e.Manager() != mgr {
		b.mark("rebuild", t)
	}
	if (t+1)%checkpointEvery == 0 {
		b.mark("checkpoint", t)
		w.submits++
	}

	// Output checks on the poller's view: /status describes this
	// interval, moses runs after each admission and is gone before the
	// next one.
	var sv statusView
	if err := json.Unmarshal(status, &sv); err != nil || sv.Time != t {
		failure = fmt.Sprintf("/status describes t=%d (%v)", sv.Time, err)
	}
	moses := ""
	for _, s := range sv.Services {
		if s.Name == "moses" {
			moses = s.State
		}
	}
	switch {
	case t%churnPeriod == churnAdmit+1 && moses != "running":
		failure = fmt.Sprintf("moses is %q one interval after admission", moses)
	case t%churnPeriod == churnAdmit-1 && t > churnPeriod && moses != "":
		failure = fmt.Sprintf("moses still registered (%s) before re-admission", moses)
	}

	if err == nil {
		// The churned service is always the newest, so it is the last
		// simulator instance: a membership change only truncates or
		// extends the backlog history.
		for len(w.prevQueue) < len(res.Services) {
			w.prevQueue = append(w.prevQueue, 0)
		}
		w.prevQueue = w.prevQueue[:len(res.Services)]
		conservation(b, res.Services, w.prevQueue)
		b.energyJ += res.EnergyJ
		for _, s := range res.Services {
			if s.OfferedRPS > 0 {
				b.qosN++
				if finite(s.P99Ms) && s.P99Ms <= s.QoSTargetMs {
					b.qosMet++
				}
			}
		}
		if loss := w.e.Manager().LastLoss(); !finite(loss) {
			failure = fmt.Sprintf("non-finite loss %v", loss)
		}
		b.dig.ints(t)
		for _, s := range res.Services {
			b.dig.ints(s.NumCores)
			b.dig.f64(s.FreqGHz)
			b.dig.f64(s.P99Ms)
		}
	}
	b.dig.close()
	b.tally.attempt("interval", 1)
	if failure != "" {
		b.tally.fail("interval", fmt.Sprintf("t=%d %s", t, failure))
	}
}

func (w *churn) finish(b *bench) {
	reg := w.e.Metrics()
	for _, name := range []string{"twigd_decide_panics_total", "twigd_step_errors_total"} {
		for i := 0; i < int(reg.Get(name, nil)); i++ {
			b.tally.fail("interval", name)
		}
	}
	b.tally.attempt("checkpoint", w.submits)
	if err := w.e.FlushCheckpoints(); err != nil {
		b.tally.fail("checkpoint", err.Error())
	}
	for i := 0; i < int(reg.Get("twigd_checkpoint_failed_total", nil)); i++ {
		b.tally.fail("checkpoint", "writer reported a failed write")
	}
	b.tally.attempt("check", 1)
	if _, data, err := w.store.ReadLatest(); err != nil {
		b.tally.fail("check", "no checkpoint: "+err.Error())
	} else if err := checkpoint.Verify(data); err != nil {
		b.tally.fail("check", "newest checkpoint fails Verify: "+err.Error())
	} else {
		b.counts["checkpoint.bytes"] = float64(len(data))
	}
	b.counts["checkpoint.writes"] = reg.Get("twigd_checkpoint_writes_total", nil)
	b.counts["checkpoint.dropped"] = reg.Get("twigd_checkpoint_dropped_total", nil)
	b.counts["checkpoint.failed"] = reg.Get("twigd_checkpoint_failed_total", nil)
	b.counts["daemon.lifecycle_transitions"] = sumFamily(reg.Render(), "twigd_lifecycle_transitions_total")
	for _, n := range w.scrapes {
		b.counts["metrics.scrape_bytes"] += n
	}
	b.counts["metrics.scrapes"] = float64(len(w.scrapes))
}

// sumFamily adds every sample of one metric family in a Prometheus
// text exposition.
func sumFamily(text, family string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || (!strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, " ")) {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

func (w *churn) close() {
	if w.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := w.server.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
		}
		cancel()
		if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: http server:", err)
		}
		w.client.CloseIdleConnections()
	}
	if w.e != nil {
		// finish already checked the writer; this only drains it
		// before the store directory is removed.
		_ = w.e.FlushCheckpoints()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
