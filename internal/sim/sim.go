// Package sim wires the simulated platform, services, interference,
// power and PMC models into a stepped server simulation: one Step is one
// monitoring interval (1 s). Controllers — Twig and the baselines — only
// interact with the world through what the paper's implementation could
// observe (tail latency from the service log, per-service PMCs, RAPL
// socket power) and control (core affinity, per-core DVFS, hotplug).
package sim

import (
	"errors"
	"fmt"
	"math"

	"github.com/twig-sched/twig/internal/rng"
	"github.com/twig-sched/twig/internal/sim/batch"
	"github.com/twig-sched/twig/internal/sim/faults"
	"github.com/twig-sched/twig/internal/sim/interference"
	"github.com/twig-sched/twig/internal/sim/platform"
	"github.com/twig-sched/twig/internal/sim/pmc"
	"github.com/twig-sched/twig/internal/sim/power"
	"github.com/twig-sched/twig/internal/sim/service"
)

// Config assembles a simulated server.
type Config struct {
	Platform     platform.Config
	Interference interference.Config
	Power        power.Config
	// ManagedSocket is the socket hosting the LC servers (clients sit
	// on the other socket, per the Tailbench loopback configuration).
	ManagedSocket int
	// PMCNoise is the relative noise of counter measurements.
	PMCNoise float64
	// MeasurementSeed seeds measurement noise (PMC + RAPL).
	MeasurementSeed int64
	// Batch, when non-nil, adds a best-effort batch workload that soaks
	// every online managed core no LC service owns — the colocation
	// setting Heracles and PARTIES target, where reclaimed resources
	// become throughput instead of idle savings.
	Batch *batch.Spec
	// Faults, when non-nil and non-zero, injects the scenario's
	// deterministic fault schedule into the run (sensor dropout and
	// corruption, lost actuation, core failures, crash episodes, flash
	// crowds). The schedule is seeded from MeasurementSeed and does not
	// depend on controller behaviour.
	Faults *faults.Scenario
	// LatencyTaxMs is a constant network round-trip added to every
	// reported latency line (p99/p95/mean/max): the inter-tier tax a
	// cloud-edge scenario charges requests that traverse the WAN to
	// reach this node. Zero for a single-tier deployment.
	LatencyTaxMs float64
}

// DefaultConfig returns the paper's evaluation platform.
func DefaultConfig() Config {
	return Config{
		Platform:      platform.DefaultConfig(),
		Interference:  interference.DefaultConfig(),
		Power:         power.DefaultConfig(),
		ManagedSocket: 1,
		PMCNoise:      0.02,
	}
}

// ServiceSpec attaches a QoS target to a service profile.
type ServiceSpec struct {
	Profile     service.Profile
	QoSTargetMs float64
	Seed        int64
}

// Allocation is the resource assignment of one service for the next
// interval: a set of cores, all at one DVFS setting (matching the
// papers' managers, which pick one frequency per service).
type Allocation struct {
	Cores   []int
	FreqGHz float64
	// CacheWays, when positive, reserves that many LLC ways for the
	// service (Intel CAT). Zero leaves the service competing for the
	// unreserved capacity.
	CacheWays int
}

// Assignment is the full mapping decision for one interval.
type Assignment struct {
	PerService []Allocation
	// IdleFreqGHz, when positive, is applied to online cores no service
	// owns (Twig's mapper sets the lowest DVFS state to save power).
	IdleFreqGHz float64
}

// ServiceStats is everything observable about one service after a step.
type ServiceStats struct {
	service.IntervalStats
	// PMCs are the raw counters; NormPMCs are feature-scaled to [0,1]
	// by the calibration maxima.
	PMCs     pmc.Sample
	NormPMCs pmc.Sample
	// QoSTargetMs echoes the target for convenience.
	QoSTargetMs float64
	// NumCores and FreqGHz echo the applied allocation.
	NumCores int
	FreqGHz  float64
	// OfferedRPS is the load that was applied.
	OfferedRPS float64
}

// StepResult is the outcome of one monitoring interval.
type StepResult struct {
	Time     int
	Services []ServiceStats
	// Batch reports the best-effort workload's progress (zero when no
	// batch is configured).
	Batch batch.Stats
	// PowerW is the RAPL measurement of the managed socket (NaN when an
	// injected RAPL read failure is active); TruePowerW is the noiseless
	// value; EnergyJ is TruePowerW × 1 s.
	PowerW     float64
	TruePowerW float64
	EnergyJ    float64
	// Faults lists the injected faults active during this interval
	// (empty without a fault scenario).
	Faults []faults.Event
}

// Server is a running simulated node.
type Server struct {
	cfg    Config
	plat   *platform.Platform
	specs  []ServiceSpec
	insts  []*service.Instance
	interf *interference.Model
	pow    *power.Model
	synth  *pmc.Synthesizer
	maxima pmc.Sample

	// Measurement-noise streams, retained for checkpointing.
	powSrc   *rng.Source
	synthSrc *rng.Source

	clock      int
	energyJ    float64
	batchWorkJ float64

	// Fault-injection state.
	inj         *faults.Injector
	downed      map[int]bool // cores offlined by injected CoreFail
	appliedAsg  Assignment   // last assignment actually actuated
	haveApplied bool
	crashPrev   []bool // crash activity in the previous interval
	warmupLeft  []int  // cold-restart warm-up intervals remaining
	lastLat     []ServiceStats
	haveLat     []bool
}

// NewServer builds a simulated server hosting the given services.
func NewServer(cfg Config, specs []ServiceSpec) *Server {
	if !isFinite(cfg.LatencyTaxMs) || cfg.LatencyTaxMs < 0 {
		panic(fmt.Sprintf("sim: latency tax %v ms is not finite and non-negative", cfg.LatencyTaxMs))
	}
	plat := platform.New(cfg.Platform)
	mrng := rng.New(cfg.MeasurementSeed + 1)
	srng := rng.New(cfg.MeasurementSeed + 2)
	s := &Server{
		cfg:        cfg,
		plat:       plat,
		specs:      specs,
		interf:     interference.New(cfg.Interference),
		pow:        power.New(cfg.Power, mrng.Rand),
		synth:      pmc.NewSynthesizer(srng.Rand, cfg.PMCNoise),
		powSrc:     mrng.Source(),
		synthSrc:   srng.Source(),
		maxima:     pmc.CalibrationMaxima(cfg.Platform.CoresPerSocket, maxFreqOf(cfg)),
		downed:     map[int]bool{},
		crashPrev:  make([]bool, len(specs)),
		warmupLeft: make([]int, len(specs)),
		lastLat:    make([]ServiceStats, len(specs)),
		haveLat:    make([]bool, len(specs)),
	}
	for i, spec := range specs {
		s.insts = append(s.insts, service.NewInstance(spec.Profile, cfg.Platform.CoresPerSocket, spec.Seed+int64(i)))
	}
	if cfg.Faults != nil && !cfg.Faults.IsZero() {
		s.inj = faults.NewInjector(*cfg.Faults, cfg.MeasurementSeed+3, len(specs), s.ManagedCores())
	}
	return s
}

// ErrFaultsArmed is returned by AddService and RemoveService when a
// fault scenario is armed: the injector's deterministic schedule is
// drawn per-service at construction, so changing the membership would
// silently change every subsequent fault draw and break reproducibility.
var ErrFaultsArmed = errors.New("sim: service membership is fixed while a fault scenario is armed")

// AddService admits a new service to the running server. The instance
// starts cold (empty queue, no affinity) at the current clock; existing
// services keep their state and indices. The caller is responsible for
// seeding spec.Seed deterministically — unlike NewServer, no per-index
// offset is added. Returns ErrFaultsArmed when fault injection is on.
func (s *Server) AddService(spec ServiceSpec) error {
	if s.inj != nil {
		return ErrFaultsArmed
	}
	s.specs = append(s.specs, spec)
	s.insts = append(s.insts, service.NewInstance(spec.Profile, s.cfg.Platform.CoresPerSocket, spec.Seed))
	s.crashPrev = append(s.crashPrev, false)
	s.warmupLeft = append(s.warmupLeft, 0)
	s.lastLat = append(s.lastLat, ServiceStats{})
	s.haveLat = append(s.haveLat, false)
	if s.appliedAsg.PerService != nil {
		s.appliedAsg.PerService = append(s.appliedAsg.PerService, Allocation{})
	}
	return nil
}

// RemoveService evicts service i. Per-service state slices are
// compacted and the platform's core-affinity owner lists are remapped so
// surviving services keep their cores under their shifted indices.
// Returns ErrFaultsArmed when fault injection is on.
func (s *Server) RemoveService(i int) error {
	if s.inj != nil {
		return ErrFaultsArmed
	}
	if i < 0 || i >= len(s.insts) {
		return fmt.Errorf("sim: service %d out of range [0,%d)", i, len(s.insts))
	}
	s.specs = append(s.specs[:i], s.specs[i+1:]...)
	s.insts = append(s.insts[:i], s.insts[i+1:]...)
	s.crashPrev = append(s.crashPrev[:i], s.crashPrev[i+1:]...)
	s.warmupLeft = append(s.warmupLeft[:i], s.warmupLeft[i+1:]...)
	s.lastLat = append(s.lastLat[:i], s.lastLat[i+1:]...)
	s.haveLat = append(s.haveLat[:i], s.haveLat[i+1:]...)
	if s.appliedAsg.PerService != nil && i < len(s.appliedAsg.PerService) {
		s.appliedAsg.PerService = append(s.appliedAsg.PerService[:i], s.appliedAsg.PerService[i+1:]...)
	}
	s.plat.RemapOwners(func(svc int) (int, bool) {
		switch {
		case svc == i:
			return 0, false
		case svc > i:
			return svc - 1, true
		default:
			return svc, true
		}
	})
	return nil
}

// Platform exposes the hardware state (controllers use it to enumerate
// managed cores).
func (s *Server) Platform() *platform.Platform { return s.plat }

// ManagedCores returns the core IDs of the managed socket.
func (s *Server) ManagedCores() []int { return s.plat.SocketCores(s.cfg.ManagedSocket) }

// NumServices returns the number of hosted services.
func (s *Server) NumServices() int { return len(s.insts) }

// Spec returns the i-th service spec.
func (s *Server) Spec(i int) ServiceSpec { return s.specs[i] }

// Clock returns the simulated time in seconds.
func (s *Server) Clock() int { return s.clock }

// EnergyJ returns the cumulative managed-socket energy.
func (s *Server) EnergyJ() float64 { return s.energyJ }

// BatchWork returns the cumulative best-effort batch work completed, in
// GHz·core·seconds (0 when no batch workload is configured).
func (s *Server) BatchWork() float64 { return s.batchWorkJ }

// MaxPowerW returns the stress-microbenchmark socket power used to
// normalise the power reward.
func (s *Server) MaxPowerW() float64 {
	return s.pow.MaxPower(s.cfg.Platform.CoresPerSocket, maxFreqOf(s.cfg))
}

// maxFreqOf is the machine's highest DVFS setting (per-config for
// heterogeneous SKUs, the paper's 2.0 GHz by default).
func maxFreqOf(cfg Config) float64 {
	_, hi := cfg.Platform.FreqRange()
	return hi
}

// FreqRange returns the machine's DVFS bounds; fallback assignments use
// it instead of the paper-platform constants so they stay legal on
// heterogeneous SKUs.
func (s *Server) FreqRange() (lo, hi float64) { return s.cfg.Platform.FreqRange() }

// IdlePowerW returns the all-idle managed-socket power.
func (s *Server) IdlePowerW() float64 {
	return s.pow.IdlePower(s.cfg.Platform.CoresPerSocket)
}

// CalibrationMaxima exposes the PMC normalisation vector.
func (s *Server) CalibrationMaxima() pmc.Sample { return s.maxima }

// Validate checks an assignment and load vector without mutating any
// state. It rejects what only a buggy controller could produce: wrong
// slice lengths, core IDs outside the machine, non-finite or negative
// frequencies and loads, and out-of-range cache-way requests.
// Assignments to offline (failed) cores are NOT errors — on real
// hardware the affinity write is simply lost — and are dropped by Step.
func (s *Server) Validate(asg Assignment, loads []float64) error {
	if len(asg.PerService) != len(s.insts) || len(loads) != len(s.insts) {
		return fmt.Errorf("sim: %d services, got %d allocations and %d loads",
			len(s.insts), len(asg.PerService), len(loads))
	}
	for i, l := range loads {
		if !isFinite(l) || l < 0 {
			return fmt.Errorf("sim: service %d offered load %v is not a finite non-negative rate", i, l)
		}
	}
	n := s.plat.NumCores()
	for i, alloc := range asg.PerService {
		for _, c := range alloc.Cores {
			if c < 0 || c >= n {
				return fmt.Errorf("sim: service %d assigned core %d out of range [0,%d)", i, c, n)
			}
		}
		if f := alloc.FreqGHz; !isFinite(f) || f < 0 {
			return fmt.Errorf("sim: service %d frequency %v GHz is not finite and non-negative", i, f)
		}
		if w := alloc.CacheWays; w < 0 || w > platform.NumCacheWays {
			return fmt.Errorf("sim: service %d cache ways %d out of range [0,%d]", i, w, platform.NumCacheWays)
		}
	}
	if f := asg.IdleFreqGHz; !isFinite(f) || f < 0 {
		return fmt.Errorf("sim: idle frequency %v GHz is not finite and non-negative", f)
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// MustStep is Step for callers with known-good assignments (tests,
// calibration sweeps, examples); it panics on a validation error.
func (s *Server) MustStep(asg Assignment, loads []float64) StepResult {
	res, err := s.Step(asg, loads)
	if err != nil {
		panic(err)
	}
	return res
}

// Step advances the simulation by one second under the given assignment
// and offered loads (one RPS per service). A malformed assignment or
// load vector returns an error without advancing the clock, so a buggy
// controller cannot kill a run; see Validate for what is rejected.
func (s *Server) Step(asg Assignment, loads []float64) (StepResult, error) {
	if err := s.Validate(asg, loads); err != nil {
		return StepResult{}, err
	}

	// Draw this interval's injected faults and partition them by effect.
	var active []faults.Event
	if s.inj != nil {
		active = append([]faults.Event(nil), s.inj.Advance()...)
	}
	k := len(s.insts)
	var (
		raplFail, actuationDrop bool

		failedCores = map[int]bool{}
		pmcDrop     = make([]bool, k)
		pmcCorrupt  = make([][]faults.Event, k)
		latDrop     = make([]bool, k)
		latStale    = make([]bool, k)
		crashed     = make([]bool, k)
		spike       = make([]float64, k)
	)
	for i := range spike {
		spike[i] = 1
	}
	for _, e := range active {
		switch e.Kind {
		case faults.RAPLFail:
			raplFail = true
		case faults.ActuationDrop:
			actuationDrop = true
		case faults.CoreFail:
			failedCores[e.Core] = true
		case faults.PMCDropout:
			pmcDrop[e.Service] = true
		case faults.PMCCorrupt:
			pmcCorrupt[e.Service] = append(pmcCorrupt[e.Service], e)
		case faults.LatencyDropout:
			latDrop[e.Service] = true
		case faults.LatencyStale:
			latStale[e.Service] = true
		case faults.ServiceCrash:
			crashed[e.Service] = true
		case faults.LoadSpike:
			spike[e.Service] *= e.Magnitude
		}
	}

	// Transient core failures: offline newly failed cores, restore the
	// ones whose fault expired.
	var recovered []int
	for c := range s.downed {
		if !failedCores[c] {
			recovered = append(recovered, c)
		}
	}
	for _, c := range recovered {
		s.plat.SetOnline(c, true)
		delete(s.downed, c)
	}
	for c := range failedCores {
		if !s.downed[c] {
			s.plat.SetOnline(c, false)
			s.downed[c] = true
		}
	}

	// Actuate, unless this interval's DVFS/affinity writes are dropped,
	// in which case the previously applied settings persist.
	eff := asg
	if actuationDrop {
		if s.haveApplied {
			eff = s.appliedAsg
		} else {
			eff = Assignment{PerService: make([]Allocation, k)}
		}
	} else {
		s.applyAssignment(asg)
		s.appliedAsg = cloneAssignment(asg)
		s.haveApplied = true
	}

	// Flash crowds multiply the offered load.
	effLoads := append([]float64(nil), loads...)
	for i := range effLoads {
		effLoads[i] *= spike[i]
	}
	loads = effLoads

	// Pre-compute per-service shares, frequencies and capacities.
	type allocState struct {
		cores   []int
		shares  []float64
		freqs   []float64
		cap     float64
		avgFreq float64
	}
	states := make([]allocState, len(s.insts))
	for i, inst := range s.insts {
		cores := s.plat.ServiceCores(i)
		st := allocState{cores: cores}
		var freqSum float64
		for _, c := range cores {
			st.shares = append(st.shares, s.plat.ShareOf(i, c))
			f := s.plat.Core(c).FreqGHz
			st.freqs = append(st.freqs, f)
			freqSum += f
		}
		if len(cores) > 0 {
			st.avgFreq = freqSum / float64(len(cores))
		}
		st.cap = inst.Profile.CapacityGHz(st.shares, st.freqs)
		// A freshly restarted service runs at degraded capacity while
		// caches re-warm and its queue rebuilds.
		if w := s.warmupLeft[i]; w > 0 && !crashed[i] {
			total := s.inj.WarmupS()
			st.cap *= 1 - 0.7*float64(w)/float64(total+1)
			s.warmupLeft[i]--
		}
		states[i] = st
	}

	// Interference: offered bandwidth is bounded by what the service
	// can actually process. A crashed service demands nothing.
	demands := make([]interference.Demand, len(s.insts))
	for i, inst := range s.insts {
		if crashed[i] {
			continue
		}
		offered := loads[i] * inst.MeanWork()
		if offered > states[i].cap {
			offered = states[i].cap
		}
		reservedMB := 0.0
		if w := eff.PerService[i].CacheWays; w > 0 {
			reservedMB = float64(w) / platform.NumCacheWays * s.cfg.Interference.LLCMB
		}
		demands[i] = interference.Demand{
			BandwidthGBs:     offered * inst.Profile.BWPerWork,
			CacheMB:          inst.Profile.CacheMB,
			ReservedMB:       reservedMB,
			BWSensitivity:    inst.Profile.BWSensitivity,
			CacheSensitivity: inst.Profile.CacheSensitivity,
		}
	}
	// The batch workload occupies every online managed core with no LC
	// owner and adds its own pressure on the shared resources.
	var batchCores []int
	var batchCap float64
	if s.cfg.Batch != nil {
		for _, id := range s.ManagedCores() {
			c := s.plat.Core(id)
			if c.Online && len(c.Owners) == 0 {
				batchCores = append(batchCores, id)
				batchCap += c.FreqGHz
			}
		}
		demands = append(demands, interference.Demand{
			BandwidthGBs:     batchCap * s.cfg.Batch.BWPerWork,
			CacheMB:          s.cfg.Batch.CacheMB,
			BWSensitivity:    s.cfg.Batch.Sensitivity,
			CacheSensitivity: s.cfg.Batch.Sensitivity,
		})
	}
	contention := s.interf.Compute(demands)

	// Run the queueing models and gather per-core utilisation.
	util := make(map[int]float64)
	res := StepResult{Time: s.clock, Services: make([]ServiceStats, len(s.insts)), Faults: active}
	for i, inst := range s.insts {
		if crashed[i] {
			// The process is down: in-flight requests are lost on the
			// crash edge, arrivals are rejected, the log emits nothing.
			if !s.crashPrev[i] {
				inst.ResetQueue()
				inst.ResetWindow()
			}
			nan := math.NaN()
			res.Services[i] = ServiceStats{
				IntervalStats: service.IntervalStats{
					P99Ms: nan, P95Ms: nan, MeanMs: nan, MaxMs: nan,
					Dropped: int(loads[i]),
				},
				QoSTargetMs: s.specs[i].QoSTargetMs,
				NumCores:    len(states[i].cores),
				FreqGHz:     states[i].avgFreq,
				OfferedRPS:  loads[i],
			}
			continue
		}
		ist := inst.RunInterval(loads[i], states[i].cap, contention[i].Inflation, 1)
		// The inter-tier network tax rides on every request that reached
		// the log, so it shifts the whole reported latency distribution.
		// Applied before the stale-scrape bookkeeping: a repeated line is
		// a taxed line.
		if tax := s.cfg.LatencyTaxMs; tax > 0 {
			ist.P99Ms += tax
			ist.P95Ms += tax
			ist.MeanMs += tax
			ist.MaxMs += tax
		}
		busyFrac := ist.BusySeconds // dt = 1 s
		var busyCoreSeconds float64
		for j, c := range states[i].cores {
			share := states[i].shares[j]
			util[c] += share * busyFrac
			busyCoreSeconds += share * busyFrac
		}
		gt := pmc.GroundTruth{
			BusyCoreSeconds: busyCoreSeconds,
			AvgFreqGHz:      states[i].avgFreq,
			WorkDone:        ist.WorkDone / ist.InflationApplied,
			Inflation:       ist.InflationApplied,
			LLCMissFactor:   contention[i].LLCMissFactor,
		}
		sample := s.synth.Synthesize(gt, ratesOf(inst.Profile))
		// Sensor faults on the counter path.
		if pmcDrop[i] {
			sample = pmc.Sample{}
		}
		for _, e := range pmcCorrupt[i] {
			if e.Magnitude == 0 {
				sample[e.Counter] = math.NaN()
			} else {
				sample[e.Counter] *= e.Magnitude
			}
		}
		res.Services[i] = ServiceStats{
			IntervalStats: ist,
			PMCs:          sample,
			NormPMCs:      pmc.Normalize(sample, s.maxima),
			QoSTargetMs:   s.specs[i].QoSTargetMs,
			NumCores:      len(states[i].cores),
			FreqGHz:       states[i].avgFreq,
			OfferedRPS:    loads[i],
		}
		// Sensor faults on the log-scrape path: a missing sample reads
		// NaN, a stale scrape repeats the last reported line.
		sv := &res.Services[i]
		switch {
		case latDrop[i]:
			nan := math.NaN()
			sv.P99Ms, sv.P95Ms, sv.MeanMs, sv.MaxMs = nan, nan, nan, nan
		case latStale[i] && s.haveLat[i]:
			last := s.lastLat[i]
			sv.P99Ms, sv.P95Ms, sv.MeanMs, sv.MaxMs = last.P99Ms, last.P95Ms, last.MeanMs, last.MaxMs
		}
		if isFinite(sv.P99Ms) {
			s.lastLat[i] = *sv
			s.haveLat[i] = true
		}
	}

	// Crash bookkeeping: a service leaving its offline episode restarts
	// cold and re-warms over the next intervals.
	for i := range s.insts {
		if s.crashPrev[i] && !crashed[i] && s.inj != nil {
			s.warmupLeft[i] = s.inj.WarmupS()
		}
		s.crashPrev[i] = crashed[i]
	}

	// Batch progress: throughput degrades with its contention inflation.
	if s.cfg.Batch != nil && batchCap > 0 {
		infl := contention[len(contention)-1].Inflation
		res.Batch = batch.Stats{Cores: len(batchCores), WorkDone: batchCap / infl}
		s.batchWorkJ += res.Batch.WorkDone
		for _, id := range batchCores {
			util[id] = 1 // best effort keeps its cores fully busy
		}
	}

	// Socket power from per-core states.
	var coreStates []power.CoreState
	for _, id := range s.ManagedCores() {
		c := s.plat.Core(id)
		coreStates = append(coreStates, power.CoreState{
			Online:      c.Online,
			FreqGHz:     c.FreqGHz,
			Utilization: util[id],
			Owned:       len(c.Owners) > 0 || util[id] > 0,
		})
	}
	res.TruePowerW = s.pow.SocketPower(coreStates)
	res.PowerW = s.pow.ReadRAPL(coreStates)
	if raplFail {
		res.PowerW = math.NaN()
	}
	res.EnergyJ = res.TruePowerW
	s.energyJ += res.EnergyJ
	s.clock++
	return res, nil
}

func (s *Server) applyAssignment(asg Assignment) {
	s.plat.ClearAffinity()
	// Cores requested by several services (time-shared after resource
	// arbitration) run at the highest requested DVFS state. Writes to
	// offline (failed or hot-unplugged) cores are lost, as they are on
	// real hardware.
	owned := make(map[int]float64)
	for svc, alloc := range asg.PerService {
		for _, c := range alloc.Cores {
			if !s.plat.Core(c).Online {
				continue
			}
			_ = s.plat.Assign(svc, c)
			if alloc.FreqGHz > owned[c] {
				owned[c] = alloc.FreqGHz
			}
		}
	}
	for c, f := range owned {
		s.plat.SetFreq(c, f)
	}
	if asg.IdleFreqGHz > 0 {
		for _, id := range s.ManagedCores() {
			if _, ok := owned[id]; !ok && s.plat.Core(id).Online {
				s.plat.SetFreq(id, asg.IdleFreqGHz)
			}
		}
	}
}

func cloneAssignment(asg Assignment) Assignment {
	out := Assignment{IdleFreqGHz: asg.IdleFreqGHz}
	out.PerService = make([]Allocation, len(asg.PerService))
	for i, a := range asg.PerService {
		out.PerService[i] = Allocation{
			Cores:     append([]int(nil), a.Cores...),
			FreqGHz:   a.FreqGHz,
			CacheWays: a.CacheWays,
		}
	}
	return out
}

func ratesOf(p service.Profile) pmc.Rates {
	return pmc.Rates{
		IPCBase:        p.IPCBase,
		BranchRatio:    p.BranchRatio,
		BranchMissRate: p.BranchMissRate,
		MemAccessRate:  p.MemAccessRate,
		L1DRate:        p.L1DRate,
		L1IRate:        p.L1IRate,
		UopFactor:      p.UopFactor,
	}
}

// CalibrateQoSTarget measures the p99 latency of a service running solo
// at its maximum load with a full socket at the highest DVFS setting —
// the paper's methodology for fixing Table II's targets. It returns the
// p99 across the final two thirds of the run (the warm-up is skipped).
func CalibrateQoSTarget(p service.Profile, cfg Config, seconds int, seed int64) float64 {
	return CalibrateQoSTargetAt(p, cfg, p.MaxLoadRPS, seconds, seed)
}

// CalibrateQoSTargetAt is CalibrateQoSTarget at an explicit offered
// load. Scenario worlds use it to fix per-tier targets at the
// scenario's own peak for the service — on an edge SKU the profile's
// full MaxLoadRPS may simply exceed the node, which would calibrate a
// saturated (meaningless) target.
func CalibrateQoSTargetAt(p service.Profile, cfg Config, loadRPS float64, seconds int, seed int64) float64 {
	srv := NewServer(cfg, []ServiceSpec{{Profile: p, Seed: seed}})
	cores := srv.ManagedCores()
	asg := Assignment{PerService: []Allocation{{Cores: cores, FreqGHz: maxFreqOf(cfg)}}}
	var lat []float64
	for t := 0; t < seconds; t++ {
		r := srv.MustStep(asg, []float64{loadRPS})
		if t >= seconds/3 {
			lat = append(lat, r.Services[0].P99Ms)
		}
	}
	// Use the median of the per-interval p99s as a stable target.
	return medianOf(lat)
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	if len(cp)%2 == 1 {
		return cp[len(cp)/2]
	}
	return (cp[len(cp)/2-1] + cp[len(cp)/2]) / 2
}
