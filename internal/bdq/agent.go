package bdq

import (
	"fmt"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/nn"
	"github.com/twig-sched/twig/internal/replay"
	"github.com/twig-sched/twig/internal/rng"
)

// TargetMode selects how the bootstrap target aggregates the branch
// Q-values of the next state.
type TargetMode int

const (
	// TargetMeanBranches averages the per-branch target Q-values, the
	// aggregation recommended by the BDQ paper. The default.
	TargetMeanBranches TargetMode = iota
	// TargetPerBranch bootstraps each branch from its own maximum.
	TargetPerBranch
)

// EpsilonSchedule is Twig's two-phase linear annealing: ε starts at
// Start, reaches Mid at MidStep and End at EndStep, then stays at End.
type EpsilonSchedule struct {
	Start, Mid, End  float64
	MidStep, EndStep int
}

// At returns ε at the given step.
func (e EpsilonSchedule) At(step int) float64 {
	switch {
	case e.MidStep <= 0:
		return e.End
	case step <= 0:
		return e.Start
	case step < e.MidStep:
		f := float64(step) / float64(e.MidStep)
		return e.Start + f*(e.Mid-e.Start)
	case step < e.EndStep:
		f := float64(step-e.MidStep) / float64(e.EndStep-e.MidStep)
		return e.Mid + f*(e.End-e.Mid)
	default:
		return e.End
	}
}

// AgentConfig configures a Q-learning agent around a multi-agent BDQ.
// Zero values select the paper's hyper-parameters via Defaults.
type AgentConfig struct {
	Spec Spec

	Gamma        float64
	LearningRate float64
	BatchSize    int
	TargetSync   int // online→target copy period, in training steps
	WarmupSteps  int // transitions stored before training starts
	// TrainPerStep is the number of gradient updates per Observe call
	// (1 by default; scaled-down experiment profiles use more to match
	// the paper's longer schedules).
	TrainPerStep   int
	ReplayCapacity int
	UsePER         bool
	PERAlpha       float64
	PERBeta0       float64
	PERAnnealSteps int
	Epsilon        EpsilonSchedule
	TargetMode     TargetMode
	MaxGradNorm    float64
	Seed           int64
}

// Defaults fills unset fields with the hyper-parameters of Sec. IV:
// Adam lr 0.0025, minibatch 64, γ 0.99, target sync 150, PER buffer 10⁶
// with α 0.6 and β 0.4→1, ε 1→0.1@10000→0.01@25000.
func (c AgentConfig) Defaults() AgentConfig {
	if c.Gamma == 0 {
		c.Gamma = 0.99
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.0025
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.TargetSync == 0 {
		c.TargetSync = 150
	}
	if c.WarmupSteps == 0 {
		c.WarmupSteps = c.BatchSize
	}
	if c.TrainPerStep == 0 {
		c.TrainPerStep = 1
	}
	if c.ReplayCapacity == 0 {
		c.ReplayCapacity = 1_000_000
	}
	if c.PERAlpha == 0 {
		c.PERAlpha = 0.6
	}
	if c.PERBeta0 == 0 {
		c.PERBeta0 = 0.4
	}
	if c.PERAnnealSteps == 0 {
		c.PERAnnealSteps = 25_000
	}
	if c.Epsilon == (EpsilonSchedule{}) {
		c.Epsilon = EpsilonSchedule{Start: 1, Mid: 0.1, End: 0.01, MidStep: 10_000, EndStep: 25_000}
	}
	return c
}

// Agent is the deep Q-learning agent of Algorithm 1: it selects branch
// actions ε-greedily, stores transitions, trains the online network from
// (prioritised) replay and periodically synchronises the target network.
type Agent struct {
	cfg    AgentConfig
	online *Network
	target *Network
	buffer replay.Buffer
	opt    *nn.Adam
	rng    *rng.Rand

	step       int // environment steps (action selections)
	trainSteps int // gradient updates

	greedyState *mat.Matrix // reusable 1×StateDim input for greedy/QValues
	train       *trainWS    // reusable TrainStep scratch (BatchSize rows)
}

// trainWS is the per-agent TrainStep scratch. BatchSize is constant for
// an agent's lifetime, so one lazily built set of buffers makes every
// steady-state training step allocation-free.
type trainWS struct {
	batch  replay.Batch
	states *mat.Matrix
	next   *mat.Matrix
	argmax [][][]int   // [K][D][batch] online-net action selections on s′
	y      [][]float64 // [K][batch] bootstrap targets
	gradQ  [][]*mat.Matrix
	tdErr  []float64
}

func (a *Agent) trainWorkspace() *trainWS {
	if a.train != nil {
		return a.train
	}
	spec := a.cfg.Spec
	K, D, n := spec.Agents, len(spec.Dims), a.cfg.BatchSize
	ws := &trainWS{
		states: mat.New(n, spec.StateDim),
		next:   mat.New(n, spec.StateDim),
		argmax: make([][][]int, K),
		y:      make([][]float64, K),
		gradQ:  make([][]*mat.Matrix, K),
		tdErr:  make([]float64, n),
	}
	for k := 0; k < K; k++ {
		ws.argmax[k] = make([][]int, D)
		ws.gradQ[k] = make([]*mat.Matrix, D)
		ws.y[k] = make([]float64, n)
		for d := 0; d < D; d++ {
			ws.argmax[k][d] = make([]int, n)
			ws.gradQ[k][d] = mat.New(n, spec.Dims[d])
		}
	}
	a.train = ws
	return ws
}

// NewAgent constructs an agent; cfg is completed with Defaults first.
func NewAgent(cfg AgentConfig) *Agent {
	cfg = cfg.Defaults()
	r := rng.New(cfg.Seed)
	online := NewNetwork(cfg.Spec, r.Rand)
	target := NewNetwork(cfg.Spec, r.Rand)
	target.CopyValuesFrom(online)
	var buf replay.Buffer
	if cfg.UsePER {
		buf = replay.NewPrioritized(cfg.ReplayCapacity, cfg.PERAlpha, cfg.PERBeta0, cfg.PERAnnealSteps)
	} else {
		buf = replay.NewUniform(cfg.ReplayCapacity)
	}
	opt := nn.NewAdam(cfg.LearningRate)
	opt.MaxGradNorm = cfg.MaxGradNorm
	return &Agent{cfg: cfg, online: online, target: target, buffer: buf, opt: opt, rng: r}
}

// Config returns the (defaulted) configuration.
func (a *Agent) Config() AgentConfig { return a.cfg }

// Online exposes the online network (used by experiments that inspect
// parameter counts or persist weights).
func (a *Agent) Online() *Network { return a.online }

// Epsilon returns the exploration rate at the current step.
func (a *Agent) Epsilon() float64 { return a.cfg.Epsilon.At(a.step) }

// Step returns the number of environment steps taken so far.
func (a *Agent) Step() int { return a.step }

// SelectActions chooses one action per agent and dimension ε-greedily:
// each branch independently explores with probability ε, as in
// action-branching architectures. The environment step counter advances.
func (a *Agent) SelectActions(state []float64) [][]int {
	return a.applyExploration(a.greedy(state))
}

// applyExploration advances the environment step counter and overlays
// per-branch ε-greedy exploration on greedy selections — the RNG draws
// of SelectActions, in the same per-agent order, factored out so the
// pooled path can batch the greedy forward and keep the draws exact.
func (a *Agent) applyExploration(acts [][]int) [][]int {
	eps := a.Epsilon()
	a.step++
	for k := range acts {
		for d := range acts[k] {
			if a.rng.Float64() < eps {
				acts[k][d] = a.rng.Intn(a.cfg.Spec.Dims[d])
			}
		}
	}
	return acts
}

// SelectGreedy returns the pure-exploitation actions without advancing
// the step counter (used after the learning phase, per Sec. V).
func (a *Agent) SelectGreedy(state []float64) [][]int { return a.greedy(state) }

// stateInput copies state into the agent's reusable 1×StateDim matrix.
func (a *Agent) stateInput(state []float64) *mat.Matrix {
	if len(state) != a.cfg.Spec.StateDim {
		panic(fmt.Sprintf("bdq: state dim %d != %d", len(state), a.cfg.Spec.StateDim))
	}
	if a.greedyState == nil {
		a.greedyState = mat.New(1, a.cfg.Spec.StateDim)
	}
	copy(a.greedyState.Data, state)
	return a.greedyState
}

func (a *Agent) greedy(state []float64) [][]int {
	return a.online.Forward(a.stateInput(state), false).GreedyActions()
}

// QValues returns the online network's Q-values for a single state:
// out[agent][dim][action]. Useful for analysis and debugging.
func (a *Agent) QValues(state []float64) [][][]float64 {
	out := a.online.Forward(a.stateInput(state), false)
	qs := make([][][]float64, len(out.Q))
	for k := range out.Q {
		qs[k] = make([][]float64, len(out.Q[k]))
		for d := range out.Q[k] {
			qs[k][d] = mat.Clone(out.Q[k][d].Row(0))
		}
	}
	return qs
}

// Observe stores a transition and, once warm, performs one training step.
// It returns the minibatch loss (0 when no training happened).
func (a *Agent) Observe(t replay.Transition) float64 {
	if len(t.Actions) != a.cfg.Spec.Agents*len(a.cfg.Spec.Dims) {
		panic("bdq: transition action count mismatch")
	}
	if len(t.Rewards) != a.cfg.Spec.Agents {
		panic("bdq: transition reward count mismatch")
	}
	a.buffer.Add(t)
	if a.buffer.Len() < a.cfg.WarmupSteps {
		return 0
	}
	var loss float64
	for i := 0; i < a.cfg.TrainPerStep; i++ {
		loss = a.TrainStep()
	}
	return loss
}

// TrainStep samples a minibatch, forms per-branch TD targets with the
// target network (actions chosen by the online network — double DQN
// style), backpropagates the weighted squared error, applies Adam and
// periodically syncs the target network. Returns the minibatch loss.
// Every agent trains alone, pooled or not: AgentPool batches only
// action selection.
func (a *Agent) TrainStep() float64 {
	ws := a.trainWorkspace()
	n := a.trainSample()
	onlineNext := a.online.Forward(ws.next, false)
	a.trainArgmax(onlineNext, n)
	targetNext := a.target.Forward(ws.next, false)
	a.trainTargets(targetNext, n)
	loss := a.trainBackprop(targetNext, n)
	a.trainCommit()
	return loss
}

// trainSample draws the minibatch and fills the state/next-state
// matrices. Returns the batch row count (always BatchSize — SampleInto
// samples with replacement).
func (a *Agent) trainSample() int {
	ws := a.trainWorkspace()
	a.buffer.SampleInto(&ws.batch, a.cfg.BatchSize, a.rng.Rand)
	n := len(ws.batch.Transitions)
	for i, t := range ws.batch.Transitions {
		copy(ws.states.Row(i), t.State)
		copy(ws.next.Row(i), t.NextState)
	}
	return n
}

// trainArgmax extracts the online network's action selections on s′
// (double-DQN style) from an eval forward over ws.next.
func (a *Agent) trainArgmax(onlineNext *Output, n int) {
	spec := a.cfg.Spec
	ws := a.train
	for k := 0; k < spec.Agents; k++ {
		for d := range spec.Dims {
			for b := 0; b < n; b++ {
				ws.argmax[k][d][b] = mat.Argmax(onlineNext.Q[k][d].Row(b))
			}
		}
	}
}

// trainTargets forms the per-agent bootstrap values y[k][b] from the
// target network's eval forward over ws.next.
func (a *Agent) trainTargets(targetNext *Output, n int) {
	spec := a.cfg.Spec
	D := len(spec.Dims)
	ws := a.train
	for k := 0; k < spec.Agents; k++ {
		for b := 0; b < n; b++ {
			t := ws.batch.Transitions[b]
			if t.Done {
				ws.y[k][b] = t.Rewards[k]
				continue
			}
			var boot float64
			for d := 0; d < D; d++ {
				boot += targetNext.Q[k][d].At(b, ws.argmax[k][d][b])
			}
			if a.cfg.TargetMode == TargetMeanBranches {
				boot /= float64(D)
			}
			ws.y[k][b] = t.Rewards[k] + a.cfg.Gamma*boot
		}
	}
}

// trainBackprop forwards the current states in training mode, builds
// the gradient — only the taken action of each branch receives error —
// backpropagates it and returns the (normalised) minibatch loss.
//
// The train-mode forward overwrites the eval Output of the same batch
// size (both use the network's workspace); argmax was extracted first.
// Gradients are already zero: parameters start that way and the
// optimiser step in trainCommit clears them as it consumes them.
func (a *Agent) trainBackprop(targetNext *Output, n int) float64 {
	spec := a.cfg.Spec
	K, D := spec.Agents, len(spec.Dims)
	ws := a.train
	out := a.online.Forward(ws.states, true)
	var loss float64
	for b := range ws.tdErr {
		ws.tdErr[b] = 0
	}
	denom := float64(n * K * D)
	for k := 0; k < K; k++ {
		for d := 0; d < D; d++ {
			g := ws.gradQ[k][d]
			g.Zero()
			for b := 0; b < n; b++ {
				act := ws.batch.Transitions[b].Actions[k*D+d]
				target := ws.y[k][b]
				if a.cfg.TargetMode == TargetPerBranch && !ws.batch.Transitions[b].Done {
					target = ws.batch.Transitions[b].Rewards[k] +
						a.cfg.Gamma*targetNext.Q[k][d].At(b, ws.argmax[k][d][b])
				}
				diff := out.Q[k][d].At(b, act) - target
				w := ws.batch.Weights[b]
				loss += 0.5 * w * diff * diff
				g.Set(b, act, w*diff/denom)
				if diff < 0 {
					ws.tdErr[b] -= diff / float64(K*D)
				} else {
					ws.tdErr[b] += diff / float64(K*D)
				}
			}
		}
	}
	a.online.Backward(ws.gradQ)
	return loss / denom
}

// trainCommit applies the optimiser step, updates replay priorities and
// periodically syncs the target network.
func (a *Agent) trainCommit() {
	ws := a.train
	a.opt.StepAndZeroGrad(a.online.Params())
	a.online.noteWeightsChanged()
	a.buffer.UpdatePriorities(ws.batch.Indices, ws.tdErr)

	a.trainSteps++
	if a.trainSteps%a.cfg.TargetSync == 0 {
		a.target.CopyValuesFrom(a.online)
	}
}

// Transfer applies transfer learning (Sec. IV): the output layers of both
// networks are re-initialised while the shared representation and hidden
// layers keep their trained weights, and exploration is restarted at the
// given step of the ε schedule.
func (a *Agent) Transfer(restartStep int) {
	a.online.ReinitOutputLayers(a.rng.Rand)
	a.target.CopyValuesFrom(a.online)
	a.step = restartStep
}

// CopyWeightsFrom copies src's online network weights into this agent's
// online network and syncs the target network (the Sec. IV weight
// transfer). Optimiser moments, replay and the ε position are untouched.
// It panics if the two architectures differ.
func (a *Agent) CopyWeightsFrom(src *Agent) {
	a.online.CopyValuesFrom(src.online)
	a.target.CopyValuesFrom(a.online)
}

// ReplayLen returns the number of stored transitions.
func (a *Agent) ReplayLen() int { return a.buffer.Len() }
