package daemon

import (
	"math"
	"time"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/sim"
)

// describeMetrics declares every exported family up front so the scrape
// layout (names, types, help) is fixed for the life of the process —
// the golden test pins it.
func (e *Engine) describeMetrics() {
	m := e.metrics
	m.Describe("twigd_intervals_total", "counter", "Monitoring intervals executed since daemon start.")
	m.Describe("twigd_decide_panics_total", "counter", "Controller panics converted into the last valid assignment.")
	m.Describe("twigd_step_errors_total", "counter", "Assignments the simulator rejected (fell back to last valid).")
	m.Describe("twigd_placement_failures_total", "counter", "Boundary placements that failed (capacity bound or simulator rejection).")
	m.Describe("twigd_qos_violations_total", "counter", "Intervals whose measured p99 missed the QoS target, per service.")
	m.Describe("twigd_lifecycle_transitions_total", "counter", "Service lifecycle transitions, by from/to state.")
	m.Describe("twigd_weight_reloads_total", "counter", "Hot weight reloads from the checkpoint store, by result.")
	m.Describe("twigd_service_state", "gauge", "Service lifecycle position (1 for the current state, 0 otherwise).")
	m.Describe("twigd_service_p99_ms", "gauge", "Measured p99 latency of the last interval, per service.")
	m.Describe("twigd_service_qos_target_ms", "gauge", "QoS tail-latency target, per service.")
	m.Describe("twigd_service_cores", "gauge", "Cores allocated in the last interval, per service.")
	m.Describe("twigd_service_freq_ghz", "gauge", "DVFS frequency applied in the last interval, per service.")
	m.Describe("twigd_service_queue_len", "gauge", "Request backlog carried into the next interval, per service.")
	m.Describe("twigd_power_watts", "gauge", "True managed-socket power of the last interval.")
	m.Describe("twigd_guard_obs_repaired_total", "counter", "Observation fields repaired by the guard.")
	m.Describe("twigd_guard_stale_exceeded_total", "counter", "Intervals a latency gap outlived the staleness bound.")
	m.Describe("twigd_guard_panics_recovered_total", "counter", "Inner-controller panics contained by the guard.")
	m.Describe("twigd_guard_actions_clamped_total", "counter", "Decisions repaired in place by the guard.")
	m.Describe("twigd_guard_fallback_intervals_total", "counter", "Intervals decided entirely by the safe fallback.")
	m.Describe("twigd_guard_breaker_trips_total", "counter", "QoS circuit-breaker trip transitions.")
	m.Describe("twigd_guard_breaker_intervals_total", "counter", "Intervals spent with the breaker escalated.")
	m.Describe("twigd_guard_breaker_engaged", "gauge", "Whether the QoS circuit breaker is escalated, per service.")
	m.Describe("twigd_checkpoint_writes_total", "counter", "Checkpoints that reached disk.")
	m.Describe("twigd_checkpoint_failed_total", "counter", "Checkpoint writes that returned an error.")
	m.Describe("twigd_checkpoint_corrupt_total", "counter", "Checkpoints skipped as corrupt during a restore or reload fallback scan.")
	m.Describe("twigd_checkpoint_dropped_total", "counter", "Snapshots dropped by the latest-wins writer policy.")
	m.Describe("twigd_checkpoint_last_seq", "gauge", "Sequence number of the newest durable checkpoint.")
	m.Describe("twigd_checkpoint_write_seconds", "gauge", "Wall-clock cost of the most recent checkpoint write.")
	m.Describe("twigd_checkpoint_age_seconds", "gauge", "Wall-clock age of the newest durable checkpoint.")
	m.Describe("twigd_control_interval_seconds", "gauge", "Wall-clock cost of the most recent control interval.")
	m.Describe("twigd_kernel_info", "gauge", "GEMM dispatch provenance: selected microkernel and detected CPU features (value is always 1).")
	m.Set("twigd_kernel_info", Labels{
		"kernel": mat.KernelName(),
		"cpu":    mat.CPUFeatures(),
	}, 1)
}

var stateNames = func() []string {
	names := make([]string, numStates)
	for s := 0; s < numStates; s++ {
		names[s] = State(s).String()
	}
	return names
}()

// updateMetrics refreshes the registry after one interval (caller holds
// the engine lock). Counters derived from cumulative sources (guard
// health, writer stats) are Set to the source value rather than
// incremented, which keeps them exact across controller rebuilds.
func (e *Engine) updateMetrics(res sim.StepResult, live []*entry, elapsed time.Duration) {
	m := e.metrics
	m.Add("twigd_intervals_total", nil, 1)
	m.Set("twigd_power_watts", nil, res.TruePowerW)
	m.Set("twigd_control_interval_seconds", nil, elapsed.Seconds())

	for i, en := range live {
		sv := res.Services[i]
		lbl := Labels{"service": en.name}
		if math.IsNaN(sv.P99Ms) || sv.P99Ms > en.qosMs {
			m.Add("twigd_qos_violations_total", lbl, 1)
		}
		m.Set("twigd_service_p99_ms", lbl, sv.P99Ms)
		m.Set("twigd_service_qos_target_ms", lbl, en.qosMs)
		m.Set("twigd_service_cores", lbl, float64(sv.NumCores))
		m.Set("twigd_service_freq_ghz", lbl, sv.FreqGHz)
		m.Set("twigd_service_queue_len", lbl, float64(sv.QueueLen))
	}
	for _, en := range e.entries {
		cur := en.lc.State().String()
		for _, name := range stateNames {
			v := 0.0
			if name == cur {
				v = 1
			}
			m.Set("twigd_service_state", Labels{"service": en.name, "state": name}, v)
		}
	}

	if e.guard != nil {
		h := e.guard.Health()
		m.Set("twigd_guard_obs_repaired_total", nil, float64(h.ObsRepaired))
		m.Set("twigd_guard_stale_exceeded_total", nil, float64(h.StaleExceeded))
		m.Set("twigd_guard_panics_recovered_total", nil, float64(h.PanicsRecovered))
		m.Set("twigd_guard_actions_clamped_total", nil, float64(h.ActionsClamped))
		m.Set("twigd_guard_fallback_intervals_total", nil, float64(h.FallbackIntervals))
		m.Set("twigd_guard_breaker_trips_total", nil, float64(h.BreakerTrips))
		m.Set("twigd_guard_breaker_intervals_total", nil, float64(h.BreakerIntervals))
		engaged := e.guard.BreakerEngaged()
		for i, en := range live {
			v := 0.0
			if i < len(engaged) && engaged[i] {
				v = 1
			}
			m.Set("twigd_guard_breaker_engaged", Labels{"service": en.name}, v)
		}
	}

	if e.writer != nil {
		ws := e.writer.Stats()
		m.Set("twigd_checkpoint_writes_total", nil, float64(ws.Writes))
		m.Set("twigd_checkpoint_failed_total", nil, float64(ws.Failed))
		m.Set("twigd_checkpoint_dropped_total", nil, float64(ws.Dropped))
		m.Set("twigd_checkpoint_last_seq", nil, float64(ws.LastSeq))
		m.Set("twigd_checkpoint_write_seconds", nil, ws.LastDuration.Seconds())
		if !ws.LastWrite.IsZero() {
			m.Set("twigd_checkpoint_age_seconds", nil, e.cfg.Now().Sub(ws.LastWrite).Seconds())
		}
	}
}
