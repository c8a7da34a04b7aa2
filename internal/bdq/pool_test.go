package bdq

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/replay"
)

// Golden differential: the pooled path (grouped selection GEMM over
// persistent packed panels, per-member training under the pool lock)
// must be bit-identical to the per-agent path — proven by comparing
// selected actions, losses and full checkpoint bytes (weights, Adam
// moments, RNG draw positions, replay state) after lockstep
// trajectories.

func poolTestCfg(seed int64) AgentConfig {
	return AgentConfig{
		Spec: Spec{
			StateDim:     12,
			Agents:       2,
			Dims:         []int{5, 4},
			SharedHidden: []int{32, 16},
			BranchHidden: 8,
			Dropout:      0.5, // exercises train-mode RNG draw ordering
		},
		BatchSize:      8,
		WarmupSteps:    8,
		TargetSync:     5,
		UsePER:         true,
		PERAnnealSteps: 100,
		Seed:           seed,
	}
}

func testState(dim, ai, t int) []float64 {
	s := make([]float64, dim)
	for j := range s {
		s[j] = math.Sin(float64(ai*1009 + t*7 + j*13))
	}
	return s
}

func testRewards(k, ai, t int) []float64 {
	r := make([]float64, k)
	for i := range r {
		r[i] = math.Cos(float64(ai*31+t*3+i)) * 0.5
	}
	return r
}

func flatActs(acts [][]int) []int {
	var out []int
	for _, row := range acts {
		out = append(out, row...)
	}
	return out
}

func encodeAgent(a *Agent) []byte {
	e := checkpoint.NewEncoder()
	a.EncodeState(e)
	return e.Bytes()
}

// drive steps a solo and a pooled population through the same
// deterministic environment in lockstep, comparing actions each
// interval and checkpoint bytes at the end.
func drive(t *testing.T, agents []*Agent, pooled []*PooledAgent, pool *AgentPool, steps, startT int, greedyEvery int) {
	t.Helper()
	S := len(agents)
	spec := agents[0].cfg.Spec
	K, D := spec.Agents, len(spec.Dims)
	prevState := make([][]float64, S)
	prevActsSolo := make([][]int, S)
	prevActsPool := make([][]int, S)
	for tt := startT; tt < startT+steps; tt++ {
		greedy := greedyEvery > 0 && tt%greedyEvery == 0
		// Per-agent path: observe then select, agent by agent.
		soloActs := make([][][]int, S)
		for i, a := range agents {
			state := testState(spec.StateDim, i, tt)
			if prevState[i] != nil {
				a.Observe(replay.Transition{
					State:     prevState[i],
					Actions:   prevActsSolo[i],
					Rewards:   testRewards(K, i, tt),
					NextState: state,
				})
			}
			if greedy {
				soloActs[i] = a.SelectGreedy(state)
			} else {
				soloActs[i] = a.SelectActions(state)
			}
		}
		// Pooled path: train each member, queue every selection, one
		// flush, then collect.
		for i, pa := range pooled {
			state := testState(spec.StateDim, i, tt)
			if prevState[i] != nil {
				pa.Observe(replay.Transition{
					State:     prevState[i],
					Actions:   prevActsPool[i],
					Rewards:   testRewards(K, i, tt),
					NextState: state,
				})
			}
			pa.QueueSelect(state, greedy)
		}
		pool.FlushStep()
		for i, pa := range pooled {
			got := pa.TakeActions()
			if fmt.Sprint(got) != fmt.Sprint(soloActs[i]) {
				t.Fatalf("t=%d agent %d: pooled actions %v != solo %v", tt, i, got, soloActs[i])
			}
			prevState[i] = testState(spec.StateDim, i, tt)
			prevActsSolo[i] = flatActs(soloActs[i])
			prevActsPool[i] = flatActs(got)
			if len(prevActsSolo[i]) != K*D {
				t.Fatalf("bad action shape")
			}
		}
	}
	for i := range agents {
		if !bytes.Equal(encodeAgent(agents[i]), encodeAgent(pooled[i].Agent)) {
			t.Fatalf("agent %d: pooled checkpoint bytes diverged from solo", i)
		}
	}
}

func TestPoolBitIdenticalSelectAndTrain(t *testing.T) {
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			saved := mat.Parallelism()
			defer mat.SetParallelism(saved)
			mat.SetParallelism(par)

			const S = 3
			var agents []*Agent
			var pooled []*PooledAgent
			pool := NewAgentPool()
			for i := 0; i < S; i++ {
				agents = append(agents, NewAgent(poolTestCfg(int64(100+i))))
				pooled = append(pooled, pool.Attach(NewAgent(poolTestCfg(int64(100+i)))))
			}
			drive(t, agents, pooled, pool, 40, 0, 7) // mixes ε-greedy and pure-greedy intervals
		})
	}
}

// TestPoolBitIdenticalVariantConfigs drives pooled members through the
// branches the default config leaves cold: global gradient clipping,
// per-branch bootstrap targets, the shared-value ablation, a
// dropout-free trunk, several updates per Observe, and members with
// different TrainPerStep in one pool, each against solo twins.
func TestPoolBitIdenticalVariantConfigs(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*AgentConfig)
	}{
		{"maxgradnorm", func(c *AgentConfig) { c.MaxGradNorm = 0.5 }},
		{"perbranch", func(c *AgentConfig) { c.TargetMode = TargetPerBranch }},
		{"sharedvalue", func(c *AgentConfig) { c.Spec.SharedValue = true }},
		{"nodropout", func(c *AgentConfig) { c.Spec.Dropout = 0 }},
		{"trainperstep", func(c *AgentConfig) { c.TrainPerStep = 2; c.MaxGradNorm = 1.5 }},
		// Seeds 300 and 301: member 0 takes one update per Observe,
		// member 1 three.
		{"mixedtrainperstep", func(c *AgentConfig) { c.TrainPerStep = 1 + 2*int(c.Seed%2) }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			const S = 2
			var agents []*Agent
			var pooled []*PooledAgent
			pool := NewAgentPool()
			for i := 0; i < S; i++ {
				cfg := poolTestCfg(int64(300 + i))
				v.mut(&cfg)
				agents = append(agents, NewAgent(cfg))
				cfg2 := poolTestCfg(int64(300 + i))
				v.mut(&cfg2)
				pooled = append(pooled, pool.Attach(NewAgent(cfg2)))
			}
			drive(t, agents, pooled, pool, 30, 0, 9)
		})
	}
}

// TestPoolConcurrentTraining hammers the pool from one goroutine per
// member, each running full Observe/Select cycles concurrently — the
// fleet-engine shape. Run with -race this checks per-member training
// and the grouped selection (stacked workspaces, shared pack panels)
// against data races; member counts shrink and grow mid-run via churn.
func TestPoolConcurrentTraining(t *testing.T) {
	const S = 4
	pool := NewAgentPool()
	var pooled []*PooledAgent
	for i := 0; i < S; i++ {
		pooled = append(pooled, pool.Attach(NewAgent(poolTestCfg(int64(400+i)))))
	}
	done := make(chan struct{}, S)
	for i, pa := range pooled {
		go func(i int, pa *PooledAgent) {
			defer func() { done <- struct{}{} }()
			spec := pa.Agent.cfg.Spec
			var prevState []float64
			var prevActs []int
			for tt := 0; tt < 40; tt++ {
				state := testState(spec.StateDim, i, tt)
				if prevState != nil {
					pa.Observe(replay.Transition{
						State:     prevState,
						Actions:   prevActs,
						Rewards:   testRewards(spec.Agents, i, tt),
						NextState: state,
					})
				}
				prevActs = flatActs(pa.SelectActions(state))
				prevState = state
			}
		}(i, pa)
	}
	for range pooled {
		<-done
	}
	// Churn under load: drain one member, admit a replacement, train on.
	pooled[2].Close()
	repl := pool.Attach(NewAgent(poolTestCfg(999)))
	solo := NewAgent(poolTestCfg(999))
	drive(t, []*Agent{solo}, []*PooledAgent{repl}, pool, 15, 0, 0)
}

// TestPoolSingleMemberBitIdentical pins the degenerate pool (S=1, the
// daemon shape): still packed-kernel batched, still bit-identical.
func TestPoolSingleMemberBitIdentical(t *testing.T) {
	pool := NewAgentPool()
	pa := pool.Attach(NewAgent(poolTestCfg(42)))
	solo := NewAgent(poolTestCfg(42))
	drive(t, []*Agent{solo}, []*PooledAgent{pa}, pool, 30, 0, 0)
}

// TestPoolDrainRestore is the churn round-trip: a pooled fleet is
// checkpointed, one member is drained, and restoring the survivors into
// a smaller pooled membership — and into plain solo agents — yields
// hex-float-identical continuations.
func TestPoolDrainRestore(t *testing.T) {
	const S = 3
	pool := NewAgentPool()
	var pooled []*PooledAgent
	for i := 0; i < S; i++ {
		pooled = append(pooled, pool.Attach(NewAgent(poolTestCfg(int64(200+i)))))
	}
	// Train past warmup so Adam moments, PER priorities and RNG
	// positions are all non-trivial, then checkpoint every member.
	drive(t, []*Agent{
		NewAgent(poolTestCfg(200)), NewAgent(poolTestCfg(201)), NewAgent(poolTestCfg(202)),
	}, pooled, pool, 25, 0, 0)
	snaps := make([][]byte, S)
	for i, pa := range pooled {
		snaps[i] = encodeAgent(pa.Agent)
	}

	// Drain member 1. Its slots are released; survivors keep training.
	pooled[1].Close()
	if pool.Members() != S-1 {
		t.Fatalf("Members() = %d after drain", pool.Members())
	}

	// Restore the survivors' checkpoints into (a) a fresh smaller pooled
	// membership and (b) solo agents, and drive both: trajectories must
	// match bit-for-bit.
	pool2 := NewAgentPool()
	var restoredPool []*PooledAgent
	var restoredSolo []*Agent
	for _, i := range []int{0, 2} {
		pa := pool2.Attach(NewAgent(poolTestCfg(int64(200 + i))))
		if err := pa.Agent.DecodeState(checkpoint.NewDecoder(snaps[i])); err != nil {
			t.Fatalf("pooled restore %d: %v", i, err)
		}
		restoredPool = append(restoredPool, pa)
		sa := NewAgent(poolTestCfg(int64(200 + i)))
		if err := sa.DecodeState(checkpoint.NewDecoder(snaps[i])); err != nil {
			t.Fatalf("solo restore %d: %v", i, err)
		}
		restoredSolo = append(restoredSolo, sa)
	}
	drive(t, restoredSolo, restoredPool, pool2, 20, 25, 5)

	// The drained member detached with full state: it must continue
	// exactly like a solo agent restored from its snapshot.
	ref := NewAgent(poolTestCfg(201))
	if err := ref.DecodeState(checkpoint.NewDecoder(snaps[1])); err != nil {
		t.Fatalf("drained ref restore: %v", err)
	}
	drained := pooled[1].Agent
	if err := drained.DecodeState(checkpoint.NewDecoder(snaps[1])); err != nil {
		t.Fatalf("drained restore: %v", err)
	}
	for tt := 25; tt < 40; tt++ {
		st := testState(12, 1, tt)
		if fmt.Sprint(drained.SelectActions(st)) != fmt.Sprint(ref.SelectActions(st)) {
			t.Fatalf("t=%d: drained member diverged from solo reference", tt)
		}
	}
	if !bytes.Equal(encodeAgent(drained), encodeAgent(ref)) {
		t.Fatal("drained member checkpoint diverged from solo reference")
	}
}

// TestPoolChurn drains and admits members: Close is idempotent, any
// pooled use after Close panics, and a member admitted after a drain
// trains bit-identically to a solo twin alongside a survivor.
func TestPoolChurn(t *testing.T) {
	pool := NewAgentPool()
	a0 := pool.Attach(NewAgent(poolTestCfg(1)))
	a1 := pool.Attach(NewAgent(poolTestCfg(2)))
	solo1 := NewAgent(poolTestCfg(2))
	drive(t, []*Agent{NewAgent(poolTestCfg(1)), solo1}, []*PooledAgent{a0, a1}, pool, 12, 0, 0)

	a0.Close()
	a0.Close() // idempotent
	if pool.Members() != 1 {
		t.Fatalf("Members() = %d after drain", pool.Members())
	}
	a2 := pool.Attach(NewAgent(poolTestCfg(3)))
	drive(t, []*Agent{solo1, NewAgent(poolTestCfg(3))}, []*PooledAgent{a1, a2}, pool, 15, 12, 0)

	st := testState(12, 0, 0)
	tr := replay.Transition{State: st, Actions: make([]int, 4), Rewards: make([]float64, 2), NextState: st}
	for name, use := range map[string]func(){
		"QueueSelect":   func() { a0.QueueSelect(st, true) },
		"SelectActions": func() { a0.SelectActions(st) },
		"SelectGreedy":  func() { a0.SelectGreedy(st) },
		"Observe":       func() { a0.Observe(tr) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Close did not panic", name)
				}
			}()
			use()
		}()
	}
}

// poolRefersTo reports where, if anywhere, the pool's own structures
// (member list and flush scratch with their backing arrays, per-row-count
// workspaces and their layer-group caches) still reach pa.
func poolRefersTo(p *AgentPool, pa *PooledAgent) string {
	if slices.Contains(p.members[:cap(p.members)], pa) || slices.Contains(p.selScratch[:cap(p.selScratch)], pa) {
		return "member list or flush scratch"
	}
	first := pa.Agent.online.Denses()[0].Pack()
	for rows, ws := range p.stack {
		if slices.Contains(ws.lgFor[:cap(ws.lgFor)], pa) || slices.Contains(ws.pks[:cap(ws.pks)], pa.pack) {
			return fmt.Sprintf("stack[%d] member cache", rows)
		}
		for _, g := range ws.lgGroups[0][:cap(ws.lgGroups[0])] {
			if g.Packed == first {
				return fmt.Sprintf("stack[%d] layer groups", rows)
			}
		}
	}
	return ""
}

// TestPoolCloseForgetsMember: after Close no pool structure refers to
// the drained member, so its replay buffer and packed panels are not
// kept alive by cached workspaces; survivors still run bit-identically
// to their solo twins.
func TestPoolCloseForgetsMember(t *testing.T) {
	pool := NewAgentPool()
	pooled := []*PooledAgent{
		pool.Attach(NewAgent(poolTestCfg(1))),
		pool.Attach(NewAgent(poolTestCfg(2))),
		pool.Attach(NewAgent(poolTestCfg(3))),
	}
	solos := []*Agent{NewAgent(poolTestCfg(1)), NewAgent(poolTestCfg(2)), NewAgent(poolTestCfg(3))}
	drive(t, solos, pooled, pool, 12, 0, 0)
	// A two-row flush too, so two workspaces cache the member.
	for _, i := range []int{0, 2} {
		pooled[i].QueueSelect(testState(12, i, 12), true)
	}
	pool.FlushStep()
	for _, i := range []int{0, 2} {
		pooled[i].TakeActions()
		if where := poolRefersTo(pool, pooled[i]); where == "" {
			t.Fatalf("member %d not cached before Close: the check would be vacuous", i)
		}
	}

	// Close the tail member, then the head.
	for _, i := range []int{2, 0} {
		pooled[i].Close()
		if where := poolRefersTo(pool, pooled[i]); where != "" {
			t.Fatalf("closed member %d still reachable from %s", i, where)
		}
	}
	if pool.Members() != 1 {
		t.Fatalf("Members() = %d, want 1", pool.Members())
	}
	// The two-row workspace is rebuilt for the survivor and a newcomer,
	// which still run bit-identically to their solo twins.
	newcomer := pool.Attach(NewAgent(poolTestCfg(4)))
	drive(t, []*Agent{solos[1], NewAgent(poolTestCfg(4))}, []*PooledAgent{pooled[1], newcomer}, pool, 6, 13, 0)
}
