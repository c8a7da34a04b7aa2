package cluster

import (
	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/metrics"
)

// describeMetrics declares every exported family up front so the scrape
// layout is fixed for the life of the coordinator.
func (c *Coordinator) describeMetrics() {
	m := c.metrics
	m.Describe("twig_cluster_intervals_total", "counter", "Coordinator intervals executed.")
	m.Describe("twig_cluster_nodes", "gauge", "Fleet nodes by machine state (up, crashed, partitioned, fenced).")
	m.Describe("twig_cluster_replicas", "gauge", "Replicas by placement state.")
	m.Describe("twig_cluster_replicas_shed", "gauge", "Replicas currently suspended by the degradation policy.")
	m.Describe("twig_cluster_lease_expiries_total", "counter", "Node leases the coordinator declared expired.")
	m.Describe("twig_cluster_node_restarts_detected_total", "counter", "Node restarts detected by heartbeat incarnation mismatch.")
	m.Describe("twig_cluster_failovers_total", "counter", "Replica failovers, by mode (warm snapshot restore or cold restart).")
	m.Describe("twig_cluster_placement_failures_total", "counter", "Placement attempts that found no reachable node with capacity.")
	m.Describe("twig_cluster_dead_letters_total", "counter", "Replicas terminally dead-lettered after exhausting placement retries.")
	m.Describe("twig_cluster_shed_episodes_total", "counter", "Degradation-policy shed decisions.")
	m.Describe("twig_cluster_shed_intervals_total", "counter", "Intervals replicas spent shed, by QoS class.")
	m.Describe("twig_cluster_decide_panics_total", "counter", "Node controller panics converted into the last valid assignment.")
	m.Describe("twig_cluster_step_errors_total", "counter", "Node assignments the simulator rejected.")
	m.Describe("twig_cluster_snapshots_total", "counter", "Warm failover snapshots cut.")
	m.Describe("twig_cluster_node_events_total", "counter", "Whole-node fault events injected.")
	m.Describe("twig_cluster_energy_joules", "gauge", "Cumulative fleet energy.")
	m.Describe("twig_cluster_kernel_info", "gauge", "GEMM dispatch provenance: selected microkernel and detected CPU features (value is always 1).")
	m.Set("twig_cluster_kernel_info", metrics.Labels{
		"kernel": mat.KernelName(),
		"cpu":    mat.CPUFeatures(),
	}, 1)
}

var replicaStateNames = func() []string {
	names := make([]string, numReplicaStates)
	for s := 0; s < numReplicaStates; s++ {
		names[s] = ReplicaState(s).String()
	}
	return names
}()

// updateMetrics refreshes the registry after one interval (caller holds
// the coordinator lock). Totals backed by the checkpointed counters are
// Set from them, which keeps scrape values exact across a fleet
// restore.
func (c *Coordinator) updateMetrics() {
	m := c.metrics
	// Set rather than Add: updateMetrics runs before the clock bump, so
	// c.clock+1 intervals have completed, and a restored coordinator
	// reports the true total rather than only post-restore steps.
	m.Set("twig_cluster_intervals_total", nil, float64(c.clock+1))

	states := map[string]int{"up": 0, "crashed": 0, "partitioned": 0, "fenced": 0}
	for _, n := range c.nodes {
		states[n.machineState()]++
	}
	for _, name := range []string{"up", "crashed", "partitioned", "fenced"} {
		m.Set("twig_cluster_nodes", metrics.Labels{"state": name}, float64(states[name]))
	}

	byState := make([]int, numReplicaStates)
	shed := 0
	for _, r := range c.replicas {
		byState[r.State]++
		if r.Shed {
			shed++
		}
	}
	for s, name := range replicaStateNames {
		m.Set("twig_cluster_replicas", metrics.Labels{"state": name}, float64(byState[s]))
	}
	m.Set("twig_cluster_replicas_shed", nil, float64(shed))

	m.Set("twig_cluster_lease_expiries_total", nil, float64(c.ctr.LeaseExpiries))
	m.Set("twig_cluster_node_restarts_detected_total", nil, float64(c.ctr.RestartsSeen))
	m.Set("twig_cluster_failovers_total", metrics.Labels{"mode": "warm"}, float64(c.ctr.WarmRestores))
	m.Set("twig_cluster_failovers_total", metrics.Labels{"mode": "cold"}, float64(c.ctr.ColdRestores))
	m.Set("twig_cluster_placement_failures_total", nil, float64(c.ctr.PlacementFails))
	m.Set("twig_cluster_dead_letters_total", nil, float64(c.ctr.DeadLetters))
	m.Set("twig_cluster_shed_episodes_total", nil, float64(c.ctr.ShedEpisodes))
	m.Set("twig_cluster_shed_intervals_total", metrics.Labels{"class": "lc"}, float64(c.ctr.ShedLC))
	m.Set("twig_cluster_shed_intervals_total", metrics.Labels{"class": "batch"}, float64(c.ctr.ShedBatch))
	m.Set("twig_cluster_decide_panics_total", nil, float64(c.ctr.DecidePanics))
	m.Set("twig_cluster_step_errors_total", nil, float64(c.ctr.StepErrors))
	m.Set("twig_cluster_snapshots_total", nil, float64(c.ctr.SnapshotsTaken))
	m.Set("twig_cluster_node_events_total", nil, float64(c.ctr.EventsInjected))
	m.Set("twig_cluster_energy_joules", nil, c.energyJ)
}

// machineState classifies a node for the node-state gauge, most severe
// condition first.
func (n *node) machineState() string {
	switch {
	case !n.alive:
		return "crashed"
	case n.fenced:
		return "fenced"
	case n.partitioned:
		return "partitioned"
	default:
		return "up"
	}
}
