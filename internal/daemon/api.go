package daemon

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"time"

	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/mat"
)

// status is the JSON document served at /status, shape-compatible with
// the original twigd snapshot (time, power, per-service allocation and
// tail latency, fault events, guard health) plus the lifecycle state of
// every registered service. Non-finite measurements (a crashed
// service's latency, a failed RAPL read) are reported as -1 so the
// snapshot always encodes as valid JSON.
type status struct {
	Time     int             `json:"time"`
	PowerW   float64         `json:"power_w"`
	Services []serviceStatus `json:"services"`
	// Faults lists the fault events active this interval (when armed).
	Faults []string `json:"faults,omitempty"`
	// Guard carries the wrapper's intervention counters (when enabled).
	Guard *ctrl.GuardHealth `json:"guard,omitempty"`
	// Resumed is the checkpoint sequence the daemon restored from
	// (absent for a fresh start).
	Resumed uint64 `json:"resumed_from,omitempty"`
	// Kernel and CPUFeatures record the GEMM dispatch provenance: the
	// selected microkernel flavour and the CPU features the build
	// detected.
	Kernel      string `json:"kernel"`
	CPUFeatures string `json:"cpu_features"`
}

type serviceStatus struct {
	Name        string  `json:"name"`
	State       string  `json:"state"`
	Cores       int     `json:"cores"`
	FreqGHz     float64 `json:"freq_ghz"`
	P99Ms       float64 `json:"p99_ms"`
	QoSTargetMs float64 `json:"qos_target_ms"`
	OfferedRPS  float64 `json:"offered_rps"`
}

// Status snapshots the run for /status.
func (e *Engine) Status() status {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := status{
		Time:        e.next - 1,
		Resumed:     e.resumed,
		Kernel:      mat.KernelName(),
		CPUFeatures: mat.CPUFeatures(),
	}
	if e.haveRes {
		s.Time = e.lastRes.Time
		s.PowerW = jsonSafe(e.lastRes.TruePowerW)
		for _, ev := range e.lastRes.Faults {
			s.Faults = append(s.Faults, ev.String())
		}
	}
	live := e.liveEntries()
	for _, en := range e.entries {
		sv := serviceStatus{
			Name:        en.name,
			State:       en.lc.State().String(),
			QoSTargetMs: en.qosMs,
		}
		if e.haveRes {
			for i, ln := range live {
				if ln == en && i < len(e.lastRes.Services) {
					r := e.lastRes.Services[i]
					sv.Cores = r.NumCores
					sv.FreqGHz = r.FreqGHz
					sv.P99Ms = jsonSafe(r.P99Ms)
					sv.OfferedRPS = r.OfferedRPS
				}
			}
		}
		s.Services = append(s.Services, sv)
	}
	if e.guard != nil {
		h := e.guard.Health()
		s.Guard = &h
	}
	return s
}

// jsonSafe maps non-finite measurements to -1: encoding/json rejects
// NaN and Inf, and a dropped sensor must not take /status down with it.
func jsonSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// apiError is the JSON error envelope for every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

// httpStatusFor maps a named engine error to its HTTP status: malformed
// or unknown input is 400, a missing service 404, and a request that
// conflicts with the current state (duplicate name, illegal lifecycle
// transition, pinned membership, absent store) is 409.
func httpStatusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownService),
		errors.Is(err, ErrBadLoad),
		errors.Is(err, ErrUnknownPattern):
		return http.StatusBadRequest
	case errors.Is(err, ErrNoSuchService):
		return http.StatusNotFound
	case errors.Is(err, ErrDuplicate),
		errors.Is(err, ErrIllegalTransition),
		errors.Is(err, ErrFaultsArmed),
		errors.Is(err, ErrNoStore):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, httpStatusFor(err), apiError{Error: err.Error()})
}

// drainRequest is the POST /drain body.
type drainRequest struct {
	Name string `json:"name"`
}

// NewMux routes the admission API onto a fresh ServeMux:
//
//	GET    /healthz          liveness probe
//	GET    /status           JSON run snapshot
//	GET    /metrics          Prometheus text exposition
//	GET    /services         registry listing
//	POST   /services         admit a service (AdmitRequest body)
//	DELETE /services/{name}  drain-then-deregister a service
//	POST   /drain            gracefully drain a service (keep registered)
//	POST   /reload           hot-reload manager weights from the store
func NewMux(e *Engine) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})

	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.Status())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(e.Metrics().Render()))
	})

	mux.HandleFunc("GET /services", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.Services())
	})

	mux.HandleFunc("POST /services", func(w http.ResponseWriter, r *http.Request) {
		var req AdmitRequest
		if err := decodeBody(w, r, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
			return
		}
		view, err := e.Admit(req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, view)
	})

	mux.HandleFunc("DELETE /services/{name}", func(w http.ResponseWriter, r *http.Request) {
		view, gone, err := e.Delete(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		code := http.StatusAccepted
		if gone {
			code = http.StatusOK
		}
		writeJSON(w, code, view)
	})

	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		var req drainRequest
		if err := decodeBody(w, r, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
			return
		}
		view, err := e.Drain(req.Name)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, view)
	})

	mux.HandleFunc("POST /reload", func(w http.ResponseWriter, r *http.Request) {
		if err := e.RequestReload(); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "reload scheduled"})
	})

	return mux
}

// maxBodyBytes caps every admission-API request body; no legitimate
// request is more than a few hundred bytes of JSON.
const maxBodyBytes = 1 << 20

// decodeBody parses a JSON request body strictly: bodies over
// maxBodyBytes are cut off (and the connection closed, via the passed
// ResponseWriter), unknown fields and trailing garbage are rejected, so
// a typoed field fails loudly instead of silently admitting a
// default-valued service.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("daemon: trailing data after JSON body")
	}
	return nil
}

// NewServer wraps NewMux in a hardened http.Server (timeouts on every
// phase, bounded header size; bodies are bounded per-handler by
// decodeBody), so a slow or hostile client cannot pin the daemon.
func NewServer(addr string, e *Engine) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           NewMux(e),
		ReadTimeout:       5 * time.Second,
		ReadHeaderTimeout: 2 * time.Second,
		WriteTimeout:      5 * time.Second,
		IdleTimeout:       30 * time.Second,
		MaxHeaderBytes:    1 << 16,
	}
}
